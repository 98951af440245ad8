// Array containers, config parsing, JSON, timers, math helpers.
#include <gtest/gtest.h>

#include <thread>

#include "comm/runtime.hpp"
#include "obs/trace.hpp"
#include "service/worker_pool.hpp"
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

TEST(Config, ParsesTextWithComments) {
  auto cfg = Config::from_text(R"(
# run parameters
nx = 720
dt = 450.0   # seconds
name = hs_test
verbose = true
)");
  EXPECT_EQ(cfg.get_int("nx", -1), 720);
  EXPECT_DOUBLE_EQ(cfg.get_double("dt", 0.0), 450.0);
  EXPECT_EQ(cfg.get_string("name"), "hs_test");
  EXPECT_TRUE(cfg.get_bool("verbose", false));
  EXPECT_FALSE(cfg.has("missing"));
  EXPECT_EQ(cfg.get_int("missing", 9), 9);
}

TEST(Config, ParsesArgs) {
  const char* argv[] = {"prog", "nx=100", "flag", "ratio=0.5"};
  auto cfg = Config::from_args(4, argv);
  EXPECT_EQ(cfg.get_int("nx", -1), 100);
  EXPECT_DOUBLE_EQ(cfg.get_double("ratio", 0.0), 0.5);
  EXPECT_FALSE(cfg.has("flag"));
}

TEST(Config, EnvOverrideWins) {
  setenv("CA_AGCM_STEPS", "77", 1);
  auto cfg = Config::from_text("steps = 5");
  EXPECT_EQ(cfg.get_int("steps", -1), 77);
  unsetenv("CA_AGCM_STEPS");
  EXPECT_EQ(cfg.get_int("steps", -1), 5);
}

TEST(Config, MalformedValuesRaiseTypedErrors) {
  // A PRESENT but unparseable value must raise, not silently become the
  // fallback: "n = 1O" is a typo the user needs to hear about.
  auto cfg = Config::from_text(
      "n = abc\ntrail = 10x\nfrac = 3.5\nd = 1.5ghz\nb = maybe");
  EXPECT_THROW(cfg.get_int("n", 3), ConfigError);
  EXPECT_THROW(cfg.get_int("trail", 3), ConfigError);
  EXPECT_THROW(cfg.get_int("frac", 3), ConfigError);   // no truncation
  EXPECT_THROW(cfg.get_long("trail", 3), ConfigError);
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
  auto cfg = Config::from_text("n = 42\nneg = -7\nd =  2.5e3 ");
  EXPECT_EQ(cfg.get_int("n", -1), 42);
  EXPECT_EQ(cfg.get_int("neg", -1), -7);
  EXPECT_DOUBLE_EQ(cfg.get_double("d", 0.0), 2500.0);
}

TEST(Config, EnvNameFoldsSeparators) {
  // '.' and '-' are illegal in POSIX env names; both must fold to '_'.
  EXPECT_EQ(Config::env_name("comm.max_resends"), "CA_AGCM_COMM_MAX_RESENDS");
  EXPECT_EQ(Config::env_name("faults.delay-polls"),
            "CA_AGCM_FAULTS_DELAY_POLLS");
  EXPECT_EQ(Config::env_name("steps"), "CA_AGCM_STEPS");
}

TEST(Config, NamespacedEnvOverrideWins) {
  // Regression: namespaced keys used to map to CA_AGCM_COMM.MAX_RESENDS,
  // which no shell can export, so the override silently never applied.
  setenv("CA_AGCM_COMM_MAX_RESENDS", "7", 1);
  auto cfg = Config::from_text("comm.max_resends = 2");
  EXPECT_EQ(cfg.get_int("comm.max_resends", -1), 7);
  unsetenv("CA_AGCM_COMM_MAX_RESENDS");
  EXPECT_EQ(cfg.get_int("comm.max_resends", -1), 2);
}

TEST(Config, EnvOverrideReachesCommRuntime) {
  // End-to-end: the exported name must reach RunOptions::from_config.
  setenv("CA_AGCM_COMM_MAX_RESENDS", "5", 1);
  setenv("CA_AGCM_COMM_TIMEOUT_MS", "1234", 1);
  Config cfg;  // empty: everything comes from the environment
  const auto opts = comm::RunOptions::from_config(cfg);
  EXPECT_EQ(opts.max_resends, 5);
  EXPECT_EQ(opts.recv_timeout, std::chrono::milliseconds(1234));
  unsetenv("CA_AGCM_COMM_MAX_RESENDS");
  unsetenv("CA_AGCM_COMM_TIMEOUT_MS");
}

TEST(Config, FailureToleranceKeysFoldAndOverride) {
  // The rank-failure knobs are documented as env-overridable; pin both
  // the folded names and the end-to-end override path.
  EXPECT_EQ(Config::env_name("comm.heartbeat_timeout"),
            "CA_AGCM_COMM_HEARTBEAT_TIMEOUT");
  EXPECT_EQ(Config::env_name("service.max_rank_strikes"),
            "CA_AGCM_SERVICE_MAX_RANK_STRIKES");
  EXPECT_EQ(Config::env_name("service.aging_rate"),
            "CA_AGCM_SERVICE_AGING_RATE");

  setenv("CA_AGCM_COMM_HEARTBEAT_TIMEOUT", "450", 1);
  setenv("CA_AGCM_SERVICE_MAX_RANK_STRIKES", "5", 1);
  setenv("CA_AGCM_SERVICE_AGING_RATE", "0.75", 1);
  // Stored entries exist but the environment must win over them.
  auto cfg = Config::from_text(
      "comm.heartbeat_timeout = 100\n"
      "service.max_rank_strikes = 1\n"
      "service.aging_rate = 0.0\n");
  const auto comm_opts = comm::RunOptions::from_config(cfg);
  EXPECT_EQ(comm_opts.heartbeat_timeout, std::chrono::milliseconds(450));
  const auto pool_opts = service::PoolOptions::from_config(cfg);
  EXPECT_EQ(pool_opts.max_rank_strikes, 5);
  EXPECT_DOUBLE_EQ(pool_opts.aging_rate, 0.75);
  unsetenv("CA_AGCM_COMM_HEARTBEAT_TIMEOUT");
  unsetenv("CA_AGCM_SERVICE_MAX_RANK_STRIKES");
  unsetenv("CA_AGCM_SERVICE_AGING_RATE");
  // With the environment cleared, the stored entries apply again.
  EXPECT_EQ(comm::RunOptions::from_config(cfg).heartbeat_timeout,
            std::chrono::milliseconds(100));
  EXPECT_EQ(service::PoolOptions::from_config(cfg).max_rank_strikes, 1);
}

TEST(Config, NumericHealthKeysFoldAndOverride) {
  // The sentinel knobs and the rollback budget are documented as
  // env-overridable; pin the folded names and the end-to-end path into
  // HealthOptions / PoolOptions.
  EXPECT_EQ(Config::env_name("health.cadence"), "CA_AGCM_HEALTH_CADENCE");
  EXPECT_EQ(Config::env_name("health.max_wind"), "CA_AGCM_HEALTH_MAX_WIND");
  EXPECT_EQ(Config::env_name("health.max_energy_growth"),
            "CA_AGCM_HEALTH_MAX_ENERGY_GROWTH");
  EXPECT_EQ(Config::env_name("health.growth_warmup"),
            "CA_AGCM_HEALTH_GROWTH_WARMUP");
  EXPECT_EQ(Config::env_name("service.numeric_retry"),
            "CA_AGCM_SERVICE_NUMERIC_RETRY");

  setenv("CA_AGCM_HEALTH_CADENCE", "4", 1);
  setenv("CA_AGCM_HEALTH_MAX_WIND", "2500", 1);
  setenv("CA_AGCM_HEALTH_GROWTH_WARMUP", "5", 1);
  setenv("CA_AGCM_SERVICE_NUMERIC_RETRY", "7", 1);
  // Stored entries exist but the environment must win over them.
  auto cfg = Config::from_text(
      "health.cadence = 1\n"
      "health.max_wind = 1e4\n"
      "service.numeric_retry = 2\n");
  const auto health = core::HealthOptions::from_config(cfg);
  EXPECT_EQ(health.cadence, 4);
  EXPECT_DOUBLE_EQ(health.max_wind, 2500.0);
  EXPECT_EQ(health.growth_warmup, 5);
  const auto pool_opts = service::PoolOptions::from_config(cfg);
  EXPECT_EQ(pool_opts.health.cadence, 4);
  EXPECT_EQ(pool_opts.numeric_retry, 7);
  unsetenv("CA_AGCM_HEALTH_CADENCE");
  unsetenv("CA_AGCM_HEALTH_MAX_WIND");
  unsetenv("CA_AGCM_HEALTH_GROWTH_WARMUP");
  unsetenv("CA_AGCM_SERVICE_NUMERIC_RETRY");
  // With the environment cleared, the stored entries apply again — and
  // the service-facing default stays "sentinel on" (cadence 1).
  EXPECT_EQ(core::HealthOptions::from_config(cfg).cadence, 1);
  EXPECT_EQ(service::PoolOptions::from_config(cfg).numeric_retry, 2);
  EXPECT_EQ(core::HealthOptions::from_config(Config{}).cadence, 1);
}

TEST(Config, ObsKeysFoldAndOverride) {
  // The observability knobs ride the same config/env machinery; pin the
  // folded names and both resolution paths (from_config for configured
  // runs, env_resolved for RunOptions{} call sites the CI leg flips on).
  EXPECT_EQ(Config::env_name("obs.trace"), "CA_AGCM_OBS_TRACE");
  EXPECT_EQ(Config::env_name("obs.dump_on_failure"),
            "CA_AGCM_OBS_DUMP_ON_FAILURE");
  EXPECT_EQ(Config::env_name("obs.ring_events"), "CA_AGCM_OBS_RING_EVENTS");
  EXPECT_EQ(Config::env_name("obs.dump_dir"), "CA_AGCM_OBS_DUMP_DIR");

  auto cfg = Config::from_text(
      "obs.trace = true\n"
      "obs.dump_on_failure = false\n"
      "obs.ring_events = 32\n"
      "obs.dump_dir = cfg_dumps\n");
  obs::TraceOptions from_cfg = obs::TraceOptions::from_config(cfg);
  EXPECT_TRUE(from_cfg.trace);
  EXPECT_FALSE(from_cfg.dump_on_failure);
  EXPECT_EQ(from_cfg.ring_events, 32);
  EXPECT_EQ(from_cfg.dump_dir, "cfg_dumps");

  setenv("CA_AGCM_OBS_TRACE", "0", 1);
  setenv("CA_AGCM_OBS_RING_EVENTS", "64", 1);
  setenv("CA_AGCM_OBS_DUMP_DIR", "env_dumps", 1);
  // The environment wins over stored entries...
  from_cfg = obs::TraceOptions::from_config(cfg);
  EXPECT_FALSE(from_cfg.trace);
  EXPECT_EQ(from_cfg.ring_events, 64);
  EXPECT_EQ(from_cfg.dump_dir, "env_dumps");
  // ...and over programmatic defaults; untouched knobs survive.
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
  EXPECT_TRUE(obs::TraceOptions::from_config(cfg).trace);
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
