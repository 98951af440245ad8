// Array containers, config parsing, JSON, timers, math helpers.
#include <gtest/gtest.h>

#include <thread>

#include "obs/trace.hpp"
#include "util/array3d.hpp"
#include "util/config.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/timer.hpp"

namespace ca::util {
namespace {

TEST(Array3D, IndexingWithHalos) {
  Array3D<double> a(4, 3, 2, {2, 1, 1});
  EXPECT_EQ(a.ex(), 8);
  EXPECT_EQ(a.ey(), 5);
  EXPECT_EQ(a.ez(), 4);
  EXPECT_EQ(a.size(), 8u * 5u * 4u);
  a(-2, -1, -1) = 1.0;
  a(5, 3, 2) = 2.0;
  a(0, 0, 0) = 3.0;
  EXPECT_DOUBLE_EQ(a(-2, -1, -1), 1.0);
  EXPECT_DOUBLE_EQ(a(5, 3, 2), 2.0);
  EXPECT_DOUBLE_EQ(a(0, 0, 0), 3.0);
}

TEST(Array3D, XIsContiguous) {
  Array3D<double> a(5, 3, 2, {1, 0, 0});
  EXPECT_EQ(a.index(1, 0, 0) - a.index(0, 0, 0), 1u);
  auto line = a.line(1, 1);
  EXPECT_EQ(line.size(), 5u);
  line[2] = 42.0;
  EXPECT_DOUBLE_EQ(a(2, 1, 1), 42.0);
}

TEST(Array3D, FillAndEquality) {
  Array3D<int> a(3, 3, 3), b(3, 3, 3);
  a.fill(7);
  b.fill(7);
  EXPECT_EQ(a, b);
  b(1, 1, 1) = 8;
  EXPECT_FALSE(a == b);
}

TEST(Array3D, CopyInteriorIgnoresHalos) {
  Array3D<double> src(3, 3, 2, {1, 1, 1});
  src.fill(-1.0);
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 3; ++j)
      for (int i = 0; i < 3; ++i) src(i, j, k) = i + 10 * j + 100 * k;
  Array3D<double> dst(3, 3, 2, {2, 2, 2});
  dst.copy_interior_from(src);
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 3; ++j)
      for (int i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(dst(i, j, k), i + 10 * j + 100 * k);
  EXPECT_DOUBLE_EQ(dst(-1, 0, 0), 0.0) << "halos must stay untouched";
}

TEST(Array2D, IndexingWithHalos) {
  Array2D<double> a(4, 3, 1, 2);
  a(-1, -2) = 5.0;
  a(4, 4) = 6.0;
  EXPECT_DOUBLE_EQ(a(-1, -2), 5.0);
  EXPECT_DOUBLE_EQ(a(4, 4), 6.0);
  EXPECT_EQ(a.size(), 6u * 7u);
}

TEST(Config, ParsesArgs) {
  const char* argv[] = {"prog",         "nx=720",       "dt=450.0",
                        "name=hs_test", "verbose=true", "flag",
                        "ratio = 0.5"};
  auto cfg = Config::from_args(7, argv);
  EXPECT_EQ(cfg.get_int("nx", -1), 720);
  EXPECT_DOUBLE_EQ(cfg.get_double("dt", 0.0), 450.0);
  EXPECT_EQ(cfg.get_string("name"), "hs_test");
  EXPECT_TRUE(cfg.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(cfg.get_double("ratio", 0.0), 0.5);
  // Tokens without '=' are skipped; missing keys fall back.
  EXPECT_EQ(cfg.get_string("flag", "absent"), "absent");
  EXPECT_EQ(cfg.get_int("missing", 9), 9);
}

TEST(Config, EnvOverrideWins) {
  const char* argv[] = {"prog", "steps=5"};
  auto cfg = Config::from_args(2, argv);
  setenv("CA_AGCM_STEPS", "77", 1);
  EXPECT_EQ(cfg.get_int("steps", -1), 77);
  unsetenv("CA_AGCM_STEPS");
  EXPECT_EQ(cfg.get_int("steps", -1), 5);
}

TEST(Config, MalformedValuesRaiseTypedErrors) {
  // A PRESENT but unparseable value must raise, not silently become the
  // fallback: "n = 1O" is a typo the user needs to hear about.
  const char* argv[] = {"prog",       "n=abc",    "trail=10x",
                        "frac=3.5",   "d=1.5ghz", "b=maybe"};
  auto cfg = Config::from_args(6, argv);
  EXPECT_THROW(cfg.get_int("n", 3), ConfigError);
  EXPECT_THROW(cfg.get_int("trail", 3), ConfigError);
  EXPECT_THROW(cfg.get_int("frac", 3), ConfigError);   // no truncation
  EXPECT_THROW(cfg.get_double("d", 1.0), ConfigError);
  // The error carries the key and offending value.
  try {
    cfg.get_int("trail", 3);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.key, "trail");
    EXPECT_EQ(e.value, "10x");
  }
  // Missing keys still fall back quietly.
  EXPECT_EQ(cfg.get_int("absent", 9), 9);
  EXPECT_DOUBLE_EQ(cfg.get_double("absent", 2.5), 2.5);
  // Bools keep their permissive fallback behavior.
  EXPECT_TRUE(cfg.get_bool("b", true));
  EXPECT_FALSE(cfg.get_bool("b", false));
}

TEST(Config, WellFormedValuesStillParse) {
  Config cfg;
  cfg.set("n", "42");
  cfg.set("neg", "-7");
  cfg.set("d", " 2.5e3 ");
  EXPECT_EQ(cfg.get_int("n", -1), 42);
  EXPECT_EQ(cfg.get_int("neg", -1), -7);
  EXPECT_DOUBLE_EQ(cfg.get_double("d", 0.0), 2500.0);
}

TEST(Config, EnvNameFoldsSeparators) {
  // '.' and '-' are illegal in POSIX env names; both must fold to '_'.
  EXPECT_EQ(Config::env_name("service.delta_chain"),
            "CA_AGCM_SERVICE_DELTA_CHAIN");
  EXPECT_EQ(Config::env_name("health.max-wind"), "CA_AGCM_HEALTH_MAX_WIND");
  EXPECT_EQ(Config::env_name("steps"), "CA_AGCM_STEPS");
}

TEST(Config, NamespacedEnvOverrideWins) {
  // Regression: namespaced keys used to map to CA_AGCM_SERVICE.DELTA_CHAIN,
  // which no shell can export, so the override silently never applied.
  const char* argv[] = {"prog", "service.delta_chain=2"};
  auto cfg = Config::from_args(2, argv);
  setenv("CA_AGCM_SERVICE_DELTA_CHAIN", "7", 1);
  EXPECT_EQ(cfg.get_int("service.delta_chain", -1), 7);
  unsetenv("CA_AGCM_SERVICE_DELTA_CHAIN");
  EXPECT_EQ(cfg.get_int("service.delta_chain", -1), 2);
}

TEST(Config, ObsKeysFoldAndOverride) {
  // The observability knobs resolve through env_resolved, which World and
  // WorkerPool apply on top of their programmatic options.
  EXPECT_EQ(Config::env_name("obs.trace"), "CA_AGCM_OBS_TRACE");
  EXPECT_EQ(Config::env_name("obs.dump_on_failure"),
            "CA_AGCM_OBS_DUMP_ON_FAILURE");
  EXPECT_EQ(Config::env_name("obs.ring_events"), "CA_AGCM_OBS_RING_EVENTS");
  EXPECT_EQ(Config::env_name("obs.dump_dir"), "CA_AGCM_OBS_DUMP_DIR");

  setenv("CA_AGCM_OBS_TRACE", "0", 1);
  setenv("CA_AGCM_OBS_RING_EVENTS", "64", 1);
  setenv("CA_AGCM_OBS_DUMP_DIR", "env_dumps", 1);
  // The environment wins over programmatic settings; untouched knobs
  // survive.
  obs::TraceOptions prog;
  prog.trace = true;
  prog.dump_on_failure = false;
  const obs::TraceOptions resolved = prog.env_resolved();
  EXPECT_FALSE(resolved.trace);
  EXPECT_FALSE(resolved.dump_on_failure);  // no env var: programmatic value
  EXPECT_EQ(resolved.ring_events, 64);
  EXPECT_EQ(resolved.dump_dir, "env_dumps");
  unsetenv("CA_AGCM_OBS_TRACE");
  unsetenv("CA_AGCM_OBS_RING_EVENTS");
  unsetenv("CA_AGCM_OBS_DUMP_DIR");
  EXPECT_TRUE(prog.env_resolved().trace);
}

TEST(Json, BuildAndDump) {
  Json doc = Json::object();
  doc["name"] = "bench";
  doc["count"] = 3;
  doc["ratio"] = 0.5;
  doc["ok"] = true;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  doc["items"] = std::move(arr);
  const std::string text = doc.dump(0);
  EXPECT_EQ(text,
            "{\"name\":\"bench\",\"count\":3,\"ratio\":0.5,\"ok\":true,"
            "\"items\":[1,\"two\"]}");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"a": 1, "b": [true, null, -2.5e2], "s": "x\nyA"})";
  const Json doc = Json::parse(text);
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.find("a")->as_double(), 1.0);
  const Json* b = doc.find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  EXPECT_TRUE(b->items()[0].as_bool());
  EXPECT_TRUE(b->items()[1].is_null());
  EXPECT_DOUBLE_EQ(b->items()[2].as_double(), -250.0);
  EXPECT_EQ(doc.find("s")->as_string(), "x\nyA");
  // dump -> parse -> dump is a fixed point.
  const std::string once = doc.dump(2);
  EXPECT_EQ(Json::parse(once).dump(2), once);
}

TEST(Json, ParseErrorsCarryOffset) {
  EXPECT_THROW(Json::parse("{\"a\": }"), JsonError);
  EXPECT_THROW(Json::parse("[1, 2"), JsonError);
  EXPECT_THROW(Json::parse("{} trailing"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(t.seconds(), 0.005);
  t.reset();
  EXPECT_LT(t.seconds(), 0.005);
}

TEST(PhaseTimers, AccumulatesByPhase) {
  PhaseTimers pt;
  pt[Phase::kExchange].seconds += 0.25;
  pt[Phase::kCollective].seconds += 0.5;
  pt[Phase::kExchange].seconds += 0.125;
  pt[Phase::kStencil].p2p_messages += 3;
  EXPECT_DOUBLE_EQ(pt.total("exchange"), 0.375);
  EXPECT_DOUBLE_EQ(pt.total("collective"), 0.5);
  EXPECT_DOUBLE_EQ(pt.total("exchange_wait"), 0.0);
  EXPECT_DOUBLE_EQ(pt.total("no such phase"), 0.0);
  EXPECT_DOUBLE_EQ(pt.sum().seconds, 0.875);
  EXPECT_EQ(pt.sum().p2p_messages, 3u);
  pt.clear();
  EXPECT_DOUBLE_EQ(pt.total("exchange"), 0.0);
  EXPECT_EQ(pt.sum(), PhaseStats{});
}

TEST(PhaseTimers, EveryPhaseHasItsOwnName) {
  PhaseTimers pt;
  for (std::size_t i = 0; i < kPhaseCount; ++i)
    pt[static_cast<Phase>(i)].seconds = static_cast<double>(i + 1);
  for (std::size_t i = 0; i < kPhaseCount; ++i)
    EXPECT_DOUBLE_EQ(pt.total(phase_name(static_cast<Phase>(i))),
                     static_cast<double>(i + 1))
        << phase_name(static_cast<Phase>(i));
}

TEST(Math, FloorDivAndMod) {
  EXPECT_EQ(floor_div(7, 3), 2);
  EXPECT_EQ(floor_div(-7, 3), -3);
  EXPECT_EQ(floor_div(-6, 3), -2);
  EXPECT_EQ(pos_mod(7, 3), 1);
  EXPECT_EQ(pos_mod(-7, 3), 2);
  EXPECT_EQ(pos_mod(-6, 3), 0);
}

TEST(Math, CloseHelper) {
  EXPECT_TRUE(close(1.0, 1.0 + 1e-15));
  EXPECT_FALSE(close(1.0, 1.001));
  EXPECT_TRUE(close(0.0, 1e-15));
}

}  // namespace
}  // namespace ca::util
