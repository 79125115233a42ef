// Unit tests for the common utilities.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/stringf.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace tiledqr {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  try {
    TILEDQR_CHECK(1 == 2, "custom context");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(TILEDQR_CHECK(2 + 2 == 4, "fine"));
}

TEST(Stringf, FormatsLikePrintf) {
  EXPECT_EQ(stringf("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(stringf("%s", ""), "");
}

TEST(Stringf, LongOutput) {
  std::string big(5000, 'a');
  EXPECT_EQ(stringf("%s", big.c_str()).size(), big.size());
}

TEST(Env, LongParsesAndFallsBack) {
  ::setenv("TILEDQR_TEST_LONG", "42", 1);
  EXPECT_EQ(env_long("TILEDQR_TEST_LONG", 7), 42);
  ::setenv("TILEDQR_TEST_LONG", "oops", 1);
  EXPECT_EQ(env_long("TILEDQR_TEST_LONG", 7), 7);
  ::unsetenv("TILEDQR_TEST_LONG");
  EXPECT_EQ(env_long("TILEDQR_TEST_LONG", 9), 9);
}

TEST(Env, FlagVariants) {
  for (const char* v : {"1", "true", "YES", "On"}) {
    ::setenv("TILEDQR_TEST_FLAG", v, 1);
    EXPECT_TRUE(env_flag("TILEDQR_TEST_FLAG")) << v;
  }
  ::setenv("TILEDQR_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("TILEDQR_TEST_FLAG"));
  ::unsetenv("TILEDQR_TEST_FLAG");
  EXPECT_TRUE(env_flag("TILEDQR_TEST_FLAG", true));
}

TEST(Env, DefaultThreadCountPositive) {
  EXPECT_GE(default_thread_count(), 1);
  // A TILEDQR_THREADS value that is unparsable, not positive, or too large
  // for an int falls back to the hardware count instead of wrapping.
  const char* old = std::getenv("TILEDQR_THREADS");
  const std::string saved = old ? old : "";
  ::unsetenv("TILEDQR_THREADS");
  const int fallback = default_thread_count();
  EXPECT_GE(fallback, 1);
  for (const char* v : {"abc", "-3", "2147483648", "4294967297"}) {
    ::setenv("TILEDQR_THREADS", v, 1);
    EXPECT_EQ(default_thread_count(), fallback) << v;
  }
  old ? ::setenv("TILEDQR_THREADS", saved.c_str(), 1) : ::unsetenv("TILEDQR_THREADS");
}

TEST(Timer, MeasuresNonNegative) {
  WallTimer t;
  volatile double x = 0;
  for (int i = 0; i < 10000; ++i) x = x + i;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(TextTable, AlignsColumns) {
  TextTable t("title");
  t.set_header({"a", "bbbb"});
  t.add_row({"xx", "y"});
  t.add_row({"1", "22222"});
  std::string s = t.str();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("bbbb"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
}

TEST(TextTable, CsvRoundTrip) {
  TextTable t;
  t.set_header({"p", "q"});
  t.add_row({"40", "10"});
  EXPECT_EQ(t.csv(), "p,q\n40,10\n");
}

}  // namespace
}  // namespace tiledqr
