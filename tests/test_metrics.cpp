// Tests for the observability primitives: the counter registry, JSONL
// trace events/writer, the flat-JSON codec every
// line goes through (JsonLine + parseFlatJsonLine/JsonReader), and the
// fail-loud I/O policy for requested artifacts.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "driver/checkpoint.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace wp {
namespace {

std::string tempPath(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(Metrics, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, RegistryReturnsStableReferences) {
  MetricsRegistry r;
  Counter& a = r.counter("x");
  a.add(7);
  EXPECT_EQ(&r.counter("x"), &a) << "same name must be the same counter";
  EXPECT_EQ(r.counter("x").value(), 7u);
  EXPECT_EQ(r.counter("y").value(), 0u) << "fresh counter starts at zero";
}

TEST(Metrics, RegistryIsThreadSafeUnderConcurrentAdds) {
  MetricsRegistry r;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10'000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&r] {
      for (int k = 0; k < kAdds; ++k) {
        r.counter("shared").add();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(r.counter("shared").value(),
            static_cast<u64>(kThreads) * kAdds);
}

TEST(Metrics, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("n\nl\tt"), "n\\nl\\tt");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(FlatJson, WriterAndReaderRoundTripAndTellFaultsApart) {
  using driver::JsonField;
  // Written by JsonLine, read back through parseFlatJsonLine and
  // JsonReader: every value comes back bit-identical.
  std::string every_byte;
  for (int b = 0; b < 256; ++b) every_byte += static_cast<char>(b);
  every_byte += "\"\\";
  const std::vector<double> doubles = {0.1, 1.0 / 3.0, -0.0, 1e-300,
                                       DBL_MAX};
  JsonLine line;
  line.str("s", every_byte);
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    line.num("d" + std::to_string(i), doubles[i]);
  }
  line.num("u", std::numeric_limits<u64>::max()).num("i", -3);
  driver::JsonReader reader;
  ASSERT_TRUE(reader.parse(line.render())) << line.render();

  std::string s;
  EXPECT_EQ(reader.get("s", s), JsonField::kOk);
  EXPECT_EQ(s, every_byte);
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    double d = 1.0;
    ASSERT_EQ(reader.get("d" + std::to_string(i), d), JsonField::kOk);
    EXPECT_EQ(std::memcmp(&d, &doubles[i], sizeof d), 0)
        << doubles[i] << " came back as " << d;
  }
  u64 u = 0;
  EXPECT_EQ(reader.get("u", u), JsonField::kOk);
  EXPECT_EQ(u, std::numeric_limits<u64>::max());
  double minus_three = 0.0;
  EXPECT_EQ(reader.get("i", minus_three), JsonField::kOk);
  EXPECT_EQ(minus_three, -3.0);
  EXPECT_EQ(reader.tokens().at("i").text, "-3");

  // Absent, wrong JSON type and malformed are three different answers,
  // and none of them touches the output.
  struct Case {
    const char* line;
    const char* as;  ///< "string", "u64" or "double"
    JsonField want;
  };
  const Case cases[] = {
      {"{\"b\": 1}", "u64", JsonField::kAbsent},
      {"{\"b\": 1}", "string", JsonField::kAbsent},
      {"{\"a\": \"7\"}", "u64", JsonField::kWrongType},
      {"{\"a\": \"7\"}", "double", JsonField::kWrongType},
      {"{\"a\": 7}", "string", JsonField::kWrongType},
      {"{\"a\": 08}", "u64", JsonField::kMalformed},
      {"{\"a\": -3}", "u64", JsonField::kMalformed},
      {"{\"a\": 1e}", "u64", JsonField::kMalformed},
      {"{\"a\": 1e}", "double", JsonField::kMalformed},
      {"{\"a\": 7}", "u64", JsonField::kOk},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(reader.parse(c.line)) << c.line;
    const std::string as = c.as;
    std::string text = "untouched";
    u64 number = 42;
    double real = 0.5;
    const JsonField got = as == "string" ? reader.get("a", text)
                          : as == "u64"  ? reader.get("a", number)
                                         : reader.get("a", real);
    EXPECT_EQ(got, c.want) << c.line << " read as " << as;
    if (got != JsonField::kOk) {
      EXPECT_EQ(text, "untouched");
      EXPECT_EQ(number, 42u);
      EXPECT_EQ(real, 0.5);
    }
  }

  // A key named twice is no flat JSON line at all.
  EXPECT_FALSE(reader.parse("{\"a\": 1, \"a\": 2}"));
  std::map<std::string, driver::JsonToken> tokens;
  EXPECT_FALSE(driver::parseFlatJsonLine(
      "{\"op\": \"health\", \"id\": \"h\", \"op\": \"drain\"}", tokens));
}

TEST(Trace, EventRendersOrderedFields) {
  const std::string path = tempPath("trace_event_test.jsonl");
  {
    TraceWriter w(path);
    TraceEvent ev("cell_end");
    ev.str("key", "crc/32768").num("worker", 3).num("mips", 1.5).boolean(
        "ok", true);
    w.write(ev);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  // ts follows the event name, with 9 fixed decimals.
  const std::string head = "{\"ev\": \"cell_end\", \"ts\": ";
  ASSERT_EQ(line.rfind(head, 0), 0u) << line;
  const std::size_t ts_end = line.find(", \"key\"");
  ASSERT_NE(ts_end, std::string::npos) << line;
  const std::string ts = line.substr(head.size(), ts_end - head.size());
  EXPECT_EQ(ts.size() - ts.find('.'), 10u) << ts;
  EXPECT_EQ(line.substr(ts_end),
            ", \"key\": \"crc/32768\", \"worker\": 3, \"mips\": 1.5, "
            "\"ok\": true}");
  std::remove(path.c_str());
}

TEST(Trace, WriterEmitsOneJsonObjectPerLine) {
  const std::string path = tempPath("trace_writer_test.jsonl");
  {
    TraceWriter w(path);
    w.write(TraceEvent("a").num("n", u64{1}));
    w.write(TraceEvent("b").str("s", "x"));
    EXPECT_EQ(w.eventsWritten(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"ts\": "), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(TraceDeathTest, UnopenablePathFailsLoudlyNamingTheKnob) {
  EXPECT_EXIT(TraceWriter("/nonexistent-dir-zzz/trace.jsonl"),
              testing::ExitedWithCode(1), "WP_TRACE.*cannot open");
}

TEST(ThreadPoolWorkerIndex, ExternalThreadIsMinusOne) {
  EXPECT_EQ(ThreadPool::currentWorkerIndex(), -1);
}

TEST(ThreadPoolWorkerIndex, WorkersSeeTheirDenseIndex) {
  ThreadPool pool(3);
  MetricsRegistry r;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&r] {
      const int me = ThreadPool::currentWorkerIndex();
      ASSERT_GE(me, 0);
      ASSERT_LT(me, 3);
      r.counter("seen." + std::to_string(me)).add();
    });
  }
  pool.wait();
  u64 total = 0;
  for (int i = 0; i < 3; ++i) {
    total += r.counter("seen." + std::to_string(i)).value();
  }
  EXPECT_EQ(total, 64u);
}

}  // namespace
}  // namespace wp
