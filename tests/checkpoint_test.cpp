// Checkpoint/restart: round-trip exactness, header validation, and a
// bitwise-identical restarted run across ranks.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/exchange.hpp"
#include "core/original_core.hpp"
#include "core/serial_core.hpp"
#include "util/checkpoint.hpp"

namespace ca::util {
namespace {

std::string temp_prefix(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("ca_agcm_") + tag))
      .string();
}

core::DycoreConfig cfg() {
  core::DycoreConfig c;
  c.nx = 24;
  c.ny = 16;
  c.nz = 8;
  c.M = 2;
  return c;
}

TEST(Checkpoint, RoundTripIsBitwise) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  state::State a(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  for (int k = 0; k < c.nz; ++k)
    for (int j = 0; j < c.ny; ++j)
      for (int i = 0; i < c.nx; ++i) {
        a.u()(i, j, k) = 0.1 * i - 0.2 * j + k;
        a.v()(i, j, k) = std::sin(0.3 * i * j);
        a.phi()(i, j, k) = 1e-7 * i + 1e7 * k;
      }
  for (int j = 0; j < c.ny; ++j)
    for (int i = 0; i < c.nx; ++i) a.psa()(i, j) = 13.75 * i - j;

  const std::string path = temp_prefix("roundtrip") + ".ckpt";
  write_checkpoint(path, mesh, d, a, 42, 12600.0);
  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const auto hdr = read_checkpoint(path, mesh, d, b);
  EXPECT_EQ(hdr.step, 42);
  EXPECT_DOUBLE_EQ(hdr.time_seconds, 12600.0);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(a, b, a.interior()), 0.0);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsWrongMesh) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  state::State a(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  a.fill(1.0);
  const std::string path = temp_prefix("wrongmesh") + ".ckpt";
  write_checkpoint(path, mesh, d, a, 0, 0.0);

  mesh::LatLonMesh other(48, 16, 8);
  mesh::DomainDecomp od(other, {1, 1, 1}, {0, 0, 0});
  state::State b(48, 16, 8, core::halos_for_depth(1));
  EXPECT_THROW(read_checkpoint(path, other, od, b), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsWrongDecomposition) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 2, 1}, {0, 0, 0});
  state::State a(c.nx, d.lny(), c.nz, core::halos_for_depth(1));
  a.fill(2.0);
  const std::string path = temp_prefix("wrongdecomp") + ".ckpt";
  write_checkpoint(path, mesh, d, a, 0, 0.0);

  mesh::DomainDecomp other(mesh, {1, 2, 1}, {0, 1, 0});  // other block
  state::State b(c.nx, other.lny(), c.nz, core::halos_for_depth(1));
  EXPECT_THROW(read_checkpoint(path, mesh, other, b), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbageAndTruncation) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));

  const std::string garbage = temp_prefix("garbage") + ".ckpt";
  {
    std::FILE* f = std::fopen(garbage.c_str(), "wb");
    std::fputs("not a checkpoint at all", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_checkpoint(garbage, mesh, d, b), std::runtime_error);
  std::remove(garbage.c_str());

  const std::string truncated = temp_prefix("trunc") + ".ckpt";
  state::State a(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  a.fill(1.0);
  write_checkpoint(truncated, mesh, d, a, 0, 0.0);
  std::filesystem::resize_file(truncated,
                               std::filesystem::file_size(truncated) / 2);
  EXPECT_THROW(read_checkpoint(truncated, mesh, d, b), std::runtime_error);
  std::remove(truncated.c_str());

  EXPECT_THROW(read_checkpoint("/nonexistent/dir/x.ckpt", mesh, d, b),
               std::runtime_error);
}

TEST(Checkpoint, Crc32MatchesTheStandardCheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
  const char digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(std::as_bytes(std::span<const char>(digits, 9))),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Checkpoint, DetectsPayloadBitRot) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  state::State a(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  a.fill(3.0);
  const std::string path = temp_prefix("bitrot") + ".ckpt";
  write_checkpoint(path, mesh, d, a, 5, 600.0);

  // Flip one payload bit well past the header.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(sizeof(CheckpointHeader)) + 129, SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(byte ^ 0x10, f);
    std::fclose(f);
  }
  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  try {
    read_checkpoint(path, mesh, d, b);
    FAIL() << "bit rot must not read back silently";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << "unexpected diagnostic: " << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsOtherVersions) {
  // Only version 3 reads back.  A file stamped v1 or v2 (their shorter
  // headers: 64 and 72 bytes) or any other version must fail loudly on
  // the version — a v1 file has no payload CRC, so reading one would
  // bring bit rot back silently.
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  state::State a(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const std::string v3 = temp_prefix("v3src") + ".ckpt";
  write_checkpoint(v3, mesh, d, a, 9, 1080.0);

  struct Stamp {
    std::uint32_t version;
    std::size_t header_bytes;
  };
  for (const Stamp st : {Stamp{1, 64}, Stamp{2, 72}, Stamp{4, 88}}) {
    SCOPED_TRACE(st.version);
    const std::string old = temp_prefix("stamped") + ".ckpt";
    {
      std::FILE* in = std::fopen(v3.c_str(), "rb");
      std::FILE* out = std::fopen(old.c_str(), "wb");
      ASSERT_NE(in, nullptr);
      ASSERT_NE(out, nullptr);
      CheckpointHeader hdr;
      ASSERT_EQ(std::fread(&hdr, 1, sizeof(hdr), in), sizeof(hdr));
      hdr.version = st.version;
      ASSERT_EQ(std::fwrite(&hdr, 1, st.header_bytes, out), st.header_bytes);
      for (int ch; (ch = std::fgetc(in)) != EOF;) std::fputc(ch, out);
      std::fclose(in);
      std::fclose(out);
    }
    state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
    auto diagnostic = [](auto&& read) -> std::string {
      try {
        read();
      } catch (const std::runtime_error& e) {
        return e.what();
      }
      return "read back without error";
    };
    for (const std::string& what :
         {diagnostic([&] { read_checkpoint(old, mesh, d, b); }),
          diagnostic([&] { read_checkpoint_chain(old, mesh, d, b); })})
      EXPECT_NE(what.find("unsupported checkpoint version"),
                std::string::npos)
          << "unexpected diagnostic: " << what;
    std::remove(old.c_str());
  }
  std::remove(v3.c_str());
}

TEST(Checkpoint, TornWriteLeavesThePreviousCheckpointResumable) {
  // A writer killed mid-checkpoint leaves a partial <path>.tmp; the real
  // file — the job's only resumable state — must be untouched, and the
  // next successful write must replace both.
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  state::State s1(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  s1.fill(1.0);
  state::State s2(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  s2.fill(2.0);

  const std::string path = temp_prefix("torn") + ".ckpt";
  write_checkpoint(path, mesh, d, s1, 1, 120.0);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "a successful write must not leave its staging file behind";

  // Simulate the crash: a step-2 checkpoint torn halfway through, still
  // under the staging name because the rename never happened.
  const std::string full2 = temp_prefix("torn_full2") + ".ckpt";
  write_checkpoint(full2, mesh, d, s2, 2, 240.0);
  {
    std::FILE* in = std::fopen(full2.c_str(), "rb");
    std::FILE* out = std::fopen((path + ".tmp").c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    const auto half =
        static_cast<long>(std::filesystem::file_size(full2) / 2);
    for (long n = 0; n < half; ++n) std::fputc(std::fgetc(in), out);
    std::fclose(in);
    std::fclose(out);
  }

  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const auto hdr = read_checkpoint(path, mesh, d, b);
  EXPECT_EQ(hdr.step, 1);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(s1, b, s1.interior()), 0.0)
      << "the torn staging file corrupted the committed checkpoint";

  // The next checkpoint replaces the torn staging file and commits.
  write_checkpoint(path, mesh, d, s2, 2, 240.0);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const auto hdr2 = read_checkpoint(path, mesh, d, b);
  EXPECT_EQ(hdr2.step, 2);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(s2, b, s2.interior()), 0.0);
  std::remove(path.c_str());
  std::remove(full2.c_str());
}

TEST(Checkpoint, FailedWriteLeavesThePreviousCheckpointIntact) {
  // When the staging file cannot even be opened (here: the .tmp name is
  // occupied by a directory), write_checkpoint must throw and the
  // committed checkpoint must stay readable.
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  state::State s1(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  s1.fill(4.0);

  const std::string path = temp_prefix("failwrite") + ".ckpt";
  write_checkpoint(path, mesh, d, s1, 3, 360.0);
  std::filesystem::remove_all(path + ".tmp");
  ASSERT_TRUE(std::filesystem::create_directory(path + ".tmp"));

  state::State s2(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  s2.fill(5.0);
  EXPECT_THROW(write_checkpoint(path, mesh, d, s2, 4, 480.0),
               std::runtime_error);

  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const auto hdr = read_checkpoint(path, mesh, d, b);
  EXPECT_EQ(hdr.step, 3);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(s1, b, s1.interior()), 0.0);
  std::filesystem::remove_all(path + ".tmp");
  std::remove(path.c_str());
}

TEST(Checkpoint, CarryBlockRoundTripsAndIsCrcGuarded) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  state::State a(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  a.fill(6.0);

  const double field[4] = {1.5, -2.25, 3.0e-7, 4.0e7};
  CarryWriter w;
  w.put_u64(0xFEEDu);
  w.put_i64(-17);
  w.put_doubles(std::span<const double>(field, 4));
  const std::vector<std::byte> blob = w.take();

  const std::string path = temp_prefix("carry") + ".ckpt";
  write_checkpoint(path, mesh, d, a, 7, 840.0, blob);

  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  std::vector<std::byte> got;
  const auto hdr = read_checkpoint(path, mesh, d, b, &got);
  EXPECT_EQ(hdr.version, 3u);
  ASSERT_EQ(hdr.carry_bytes, blob.size());
  ASSERT_EQ(got.size(), blob.size());

  CarryReader r(got);
  EXPECT_EQ(r.get_u64(), 0xFEEDu);
  EXPECT_EQ(r.get_i64(), -17);
  double back[4] = {};
  r.get_doubles(std::span<double>(back, 4));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back[i], field[i]);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_end());

  // A reader that does not ask for the carry skips it silently (the
  // payload stays valid), preserving carry-free consumers.
  EXPECT_NO_THROW(read_checkpoint(path, mesh, d, b));

  // Flip a bit in the carry region (the last byte of the file): the
  // payload CRC still passes, the carry CRC must not.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int byte = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(byte ^ 0x01, f);
    std::fclose(f);
  }
  EXPECT_NO_THROW(read_checkpoint(path, mesh, d, b))
      << "carry-free readers must not pay for carry rot";
  try {
    read_checkpoint(path, mesh, d, b, &got);
    FAIL() << "carry bit rot must not read back silently";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("carry CRC"), std::string::npos)
        << "unexpected diagnostic: " << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, CarryReaderFailsLoudlyOnFormatMismatch) {
  const double field[3] = {1.0, 2.0, 3.0};
  CarryWriter w;
  w.put_doubles(std::span<const double>(field, 3));
  const std::vector<std::byte> blob = w.take();

  {
    // Stored count 3, core expects 5: a differently-configured core.
    CarryReader r(blob);
    double out[5] = {};
    EXPECT_THROW(r.get_doubles(std::span<double>(out, 5)),
                 std::runtime_error);
  }
  {
    // Truncated block: the length prefix survives but the doubles don't.
    CarryReader r(std::span<const std::byte>(blob.data(), blob.size() - 8));
    double out[3] = {};
    EXPECT_THROW(r.get_doubles(std::span<double>(out, 3)),
                 std::runtime_error);
  }
  {
    // Unread trailing bytes: the core consumed less than was stored.
    CarryReader r(blob);
    EXPECT_EQ(r.get_u64(), 3u);  // just the length prefix
    EXPECT_THROW(r.expect_end(), std::runtime_error);
  }
}

// --- durability counters ---------------------------------------------------

TEST(Checkpoint, WritesAreFsyncedAndCounted) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  state::State a(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  a.fill(1.0);
  const std::string path = temp_prefix("fsync") + ".ckpt";

  reset_checkpoint_io();
  write_checkpoint(path, mesh, d, a, 1, 120.0);
  const auto w = checkpoint_io();
  EXPECT_EQ(w.files_written, 1u);
  EXPECT_EQ(w.bytes_written, std::filesystem::file_size(path));
  EXPECT_GE(w.fsyncs, 1u)
      << "the checkpoint was renamed over the previous one without an "
         "fsync: a power loss could commit a torn or empty file";
  EXPECT_EQ(w.files_read, 0u);

  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  read_checkpoint(path, mesh, d, b);
  const auto r = checkpoint_io();
  EXPECT_EQ(r.files_read, 1u);
  EXPECT_EQ(r.bytes_read, w.bytes_written);
  reset_checkpoint_io();
  std::remove(path.c_str());
}

// --- v4 delta chains -------------------------------------------------------

/// Removes a chain's base and every delta file.
void remove_chain(const std::string& path) {
  std::remove(path.c_str());
  for (int s = 1; std::remove(delta_path(path, s).c_str()) == 0; ++s) {
  }
}

/// A deterministic full-field pattern, salted so successive steps differ.
state::State patterned_state(const core::DycoreConfig& c, double salt) {
  state::State a(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  for (int k = 0; k < c.nz; ++k)
    for (int j = 0; j < c.ny; ++j)
      for (int i = 0; i < c.nx; ++i) {
        a.u()(i, j, k) = 0.1 * i - 0.2 * j + k + salt;
        a.v()(i, j, k) = std::sin(0.3 * i * j) - salt;
        a.phi()(i, j, k) = 1e-7 * i + 1e7 * k + 3.0 * salt;
      }
  for (int j = 0; j < c.ny; ++j)
    for (int i = 0; i < c.nx; ++i) a.psa()(i, j) = 13.75 * i - j + salt;
  return a;
}

TEST(CheckpointDelta, ChainRoundTripsBitwiseAndRewinds) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  const std::string path = temp_prefix("chain") + ".ckpt";
  remove_chain(path);

  // Steps 1..4: a sparse edit per cadence, so deltas stay small.
  CheckpointSession session(path, {.chain_cap = 8, .block_bytes = 4096});
  state::State s = patterned_state(c, 0.0);
  std::vector<state::State> snaps;
  for (int step = 1; step <= 4; ++step) {
    s.u()(step, step % c.ny, 0) += 1.0;  // one cell per cadence
    session.write(mesh, d, s, step, 120.0 * step);
    snaps.emplace_back(c.nx, c.ny, c.nz, core::halos_for_depth(1));
    snaps.back().assign(s, s.interior());
  }
  EXPECT_EQ(session.stats().cadences, 4u);
  EXPECT_EQ(session.stats().full_writes, 1u);
  EXPECT_EQ(session.stats().delta_writes, 3u);
  EXPECT_LT(session.stats().bytes_written,
            session.stats().full_equivalent_bytes)
      << "sparse-edit deltas did not save any bytes";
  ASSERT_TRUE(std::filesystem::exists(delta_path(path, 1)));
  ASSERT_TRUE(std::filesystem::exists(delta_path(path, 3)));

  // Tip reconstruction is bitwise.
  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const auto tip = read_checkpoint_chain(path, mesh, d, b);
  EXPECT_EQ(tip.header.step, 4);
  EXPECT_EQ(tip.deltas_applied, 3);
  EXPECT_FALSE(tip.truncated_by_corruption);
  EXPECT_DOUBLE_EQ(
      state::State::max_abs_diff(snaps[3], b, snaps[3].interior()), 0.0);

  // Rewind to every interior element, bitwise each time.
  for (int step = 1; step <= 3; ++step) {
    state::State r(c.nx, c.ny, c.nz, core::halos_for_depth(1));
    const auto got =
        read_checkpoint_chain(path, mesh, d, r, nullptr, {.max_step = step});
    EXPECT_EQ(got.header.step, step);
    EXPECT_DOUBLE_EQ(state::State::max_abs_diff(
                         snaps[static_cast<std::size_t>(step - 1)], r,
                         r.interior()),
                     0.0)
        << "rewind to step " << step << " was not bitwise";
  }
  // A step the chain never wrote must fail loudly, not approximate.
  state::State r(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  EXPECT_THROW(
      read_checkpoint_chain(path, mesh, d, r, nullptr, {.max_step = 9}),
      std::runtime_error);
  remove_chain(path);
}

TEST(Checkpoint, HealthVerdictRoundTripsInTheHeader) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  const std::string path = temp_prefix("health") + ".ckpt";

  state::State a = patterned_state(c, 1.0);
  write_checkpoint(path, mesh, d, a, 7, 840.0, {}, /*health=*/1);
  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  EXPECT_EQ(read_checkpoint(path, mesh, d, b).health, 1u);

  // The default is "unverified" — files written by a sentinel-off run
  // (and pre-sentinel archives, which reused this spare field as zero)
  // must read back as 0.
  write_checkpoint(path, mesh, d, a, 7, 840.0);
  EXPECT_EQ(read_checkpoint(path, mesh, d, b).health, 0u);
  std::remove(path.c_str());
}

TEST(CheckpointDelta, PoisonedTipRewindsToTheLastHealthyStep) {
  // The runner's rollback path in one test: a chain whose tip holds a
  // poisoned state (written by a sentinel-off run, so nothing gated it)
  // is rewound via max_step to the newest healthy cadence, bitwise.
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  const std::string path = temp_prefix("poisoned_tip") + ".ckpt";
  remove_chain(path);

  CheckpointSession session(path, {.chain_cap = 8, .block_bytes = 4096});
  state::State s = patterned_state(c, 0.0);
  state::State healthy(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  for (int step = 1; step <= 3; ++step) {
    s.u()(step, step, 0) += 1.0;
    session.write(mesh, d, s, step, 120.0 * step, {}, /*health=*/1);
    if (step == 3) healthy.assign(s, s.interior());
  }
  // Step 4 blows up and the (hypothetical sentinel-off) writer persists
  // it: NaN in the prognostic state, flagged unverified.
  s.u()(4, 4, 0) = std::numeric_limits<double>::quiet_NaN();
  session.write(mesh, d, s, 4, 480.0, {}, /*health=*/0);

  state::State tip(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const auto got = read_checkpoint_chain(path, mesh, d, tip);
  EXPECT_EQ(got.header.step, 4);
  EXPECT_EQ(got.header.health, 0u);
  EXPECT_TRUE(std::isnan(tip.u()(4, 4, 0)));

  // The rewind a numeric recovery performs: one cadence back, bitwise,
  // and the rewound header carries the healthy verdict.
  state::State r(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const auto rew =
      read_checkpoint_chain(path, mesh, d, r, nullptr, {.max_step = 3});
  EXPECT_EQ(rew.header.step, 3);
  EXPECT_EQ(rew.header.health, 1u);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(healthy, r, r.interior()), 0.0)
      << "rewind past the poisoned tip was not bitwise";
  remove_chain(path);
}

TEST(CheckpointDelta, ChainCapRewritesAFreshBaseAndDropsStaleDeltas) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  const std::string path = temp_prefix("chaincap") + ".ckpt";
  remove_chain(path);

  CheckpointSession session(path, {.chain_cap = 2, .block_bytes = 4096});
  state::State s = patterned_state(c, 0.0);
  for (int step = 1; step <= 6; ++step) {
    s.u()(0, 0, 0) += 1.0;
    session.write(mesh, d, s, step, 120.0 * step);
  }
  // Pattern: full, d1, d2, full, d1, d2.
  EXPECT_EQ(session.stats().full_writes, 2u);
  EXPECT_EQ(session.stats().delta_writes, 4u);
  EXPECT_FALSE(std::filesystem::exists(delta_path(path, 3)))
      << "the chain-cap base rewrite left a stale third delta behind";

  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const auto tip = read_checkpoint_chain(path, mesh, d, b);
  EXPECT_EQ(tip.header.step, 6);
  EXPECT_EQ(tip.deltas_applied, 2);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(s, b, s.interior()), 0.0);
  remove_chain(path);
}

TEST(CheckpointDelta, CorruptDeltaFallsBackToTheLastIntactElement) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  const std::string path = temp_prefix("chainrot") + ".ckpt";
  remove_chain(path);

  CheckpointSession session(path, {.chain_cap = 8, .block_bytes = 4096});
  state::State s = patterned_state(c, 0.0);
  state::State at2(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  for (int step = 1; step <= 3; ++step) {
    s.u()(1, 1, 1) += 1.0;
    session.write(mesh, d, s, step, 120.0 * step);
    if (step == 2) at2.assign(s, s.interior());
  }

  // Bit rot in the LAST byte of .d2's payload (past its header).
  {
    std::FILE* f = std::fopen(delta_path(path, 2).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int byte = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(byte ^ 0x40, f);
    std::fclose(f);
  }
  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const auto got = read_checkpoint_chain(path, mesh, d, b);
  EXPECT_EQ(got.header.step, 2) << "the corrupt delta was not rejected";
  EXPECT_EQ(got.deltas_applied, 1);
  EXPECT_TRUE(got.truncated_by_corruption);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(at2, b, at2.interior()), 0.0)
      << "fallback state is not the last intact element";
  remove_chain(path);
}

TEST(CheckpointDelta, TornDeltaFallsBackToTheLastIntactElement) {
  // A writer killed mid-delta leaves <path>.d2.tmp, never .d2 — but a
  // power loss can also tear a published file on non-journaled setups;
  // both must degrade to the previous element, never garbage.
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  const std::string path = temp_prefix("chaintorn") + ".ckpt";
  remove_chain(path);

  CheckpointSession session(path, {.chain_cap = 8, .block_bytes = 4096});
  state::State s = patterned_state(c, 0.0);
  state::State at1(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  for (int step = 1; step <= 2; ++step) {
    s.v()(2, 3, 4) -= 0.5;
    session.write(mesh, d, s, step, 120.0 * step);
    if (step == 1) at1.assign(s, s.interior());
  }
  std::filesystem::resize_file(
      delta_path(path, 1),
      std::filesystem::file_size(delta_path(path, 1)) / 2);

  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const auto got = read_checkpoint_chain(path, mesh, d, b);
  EXPECT_EQ(got.header.step, 1) << "the torn delta was not rejected";
  EXPECT_EQ(got.deltas_applied, 0);
  EXPECT_TRUE(got.truncated_by_corruption);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(at1, b, at1.interior()), 0.0);
  remove_chain(path);
}

TEST(CheckpointDelta, StaleDeltasFromAnOldBaseAreIgnored) {
  // Crash between a fresh session's base write and the old chain's
  // cleanup: deltas of the OLD base survive on disk next to the new
  // base.  Their base_id no longer matches, so the chain read must stop
  // at the new base instead of applying old-trajectory blocks.
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  const std::string path = temp_prefix("chainstale") + ".ckpt";
  remove_chain(path);

  {
    CheckpointSession session(path, {.chain_cap = 8, .block_bytes = 4096});
    state::State s = patterned_state(c, 0.0);
    session.write(mesh, d, s, 1, 120.0);
    s.u()(0, 0, 0) += 1.0;
    session.write(mesh, d, s, 2, 240.0);  // -> .d1
  }
  // Preserve the old .d1 from the new session's full-write cleanup, then
  // put it back: this is the on-disk picture of a cleanup that never ran.
  const std::string stale = delta_path(path, 1);
  const std::string keep = stale + ".keep";
  ASSERT_EQ(std::rename(stale.c_str(), keep.c_str()), 0);
  state::State fresh = patterned_state(c, 99.0);
  {
    CheckpointSession session(path, {.chain_cap = 8, .block_bytes = 4096});
    session.write(mesh, d, fresh, 7, 840.0);  // fresh full base
  }
  ASSERT_EQ(std::rename(keep.c_str(), stale.c_str()), 0);

  state::State b(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const auto got = read_checkpoint_chain(path, mesh, d, b);
  EXPECT_EQ(got.header.step, 7);
  EXPECT_EQ(got.deltas_applied, 0)
      << "a delta of the OLD base was applied to the new one";
  EXPECT_FALSE(got.truncated_by_corruption)
      << "a stale chain is not corruption; it is simply over";
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(fresh, b, fresh.interior()),
                   0.0);
  remove_chain(path);
}

TEST(CheckpointDelta, AllDirtyCadenceDegeneratesToAFullBase) {
  // When every block changed, a delta would cost MORE than the full file
  // (indices + all blocks); the session must write a full base instead,
  // so delta mode is never worse than full mode.
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  const std::string path = temp_prefix("chaindense") + ".ckpt";
  remove_chain(path);

  CheckpointSession session(path, {.chain_cap = 8, .block_bytes = 4096});
  session.write(mesh, d, patterned_state(c, 0.0), 1, 120.0);
  session.write(mesh, d, patterned_state(c, 1.0), 2, 240.0);
  EXPECT_EQ(session.stats().full_writes, 2u);
  EXPECT_EQ(session.stats().delta_writes, 0u);
  EXPECT_FALSE(std::filesystem::exists(delta_path(path, 1)));

  // And the full file stays bitwise identical to write_checkpoint's.
  const std::string ref = temp_prefix("chaindense_ref") + ".ckpt";
  write_checkpoint(ref, mesh, d, patterned_state(c, 1.0), 2, 240.0);
  std::FILE* fa = std::fopen(path.c_str(), "rb");
  std::FILE* fb = std::fopen(ref.c_str(), "rb");
  ASSERT_NE(fa, nullptr);
  ASSERT_NE(fb, nullptr);
  for (int ca_ = 0, cb = 0; ca_ != EOF || cb != EOF;) {
    ca_ = std::fgetc(fa);
    cb = std::fgetc(fb);
    ASSERT_EQ(ca_, cb) << "session full base diverged from "
                          "write_checkpoint's bytes";
  }
  std::fclose(fa);
  std::fclose(fb);
  std::remove(ref.c_str());
  remove_chain(path);
}

TEST(CheckpointDelta, FreshBaseSweepsDeltasPastAHole) {
  // The stale-delta sweep used to walk `.d1, .d2, ...` and stop at the
  // first missing file.  A hole in the sequence (a delta removed by an
  // operator, lost to a disk repair, or swept by a racing cleanup) then
  // left every later delta behind forever — stale files that are never
  // read (base_id mismatch) but grow the directory without bound.
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
  const std::string path = temp_prefix("chainhole") + ".ckpt";
  remove_chain(path);

  state::State s = patterned_state(c, 0.0);
  {
    CheckpointSession session(path, {.chain_cap = 8, .block_bytes = 4096});
    for (int step = 1; step <= 5; ++step) {
      s.u()(0, 0, 0) += 1.0;
      session.write(mesh, d, s, step, 120.0 * step);  // base + d1..d4
    }
  }
  ASSERT_TRUE(std::filesystem::exists(delta_path(path, 4)));
  std::remove(delta_path(path, 2).c_str());  // pre-punched hole

  // A fresh session's first write is a full base; its cleanup must sweep
  // the whole old chain, including the deltas past the hole.
  {
    CheckpointSession session(path, {.chain_cap = 8, .block_bytes = 4096});
    session.write(mesh, d, s, 9, 1080.0);
  }
  for (int seq : {1, 3, 4})
    EXPECT_FALSE(std::filesystem::exists(delta_path(path, seq)))
        << "stale delta .d" << seq << " survived past the hole";
  remove_chain(path);
}

struct ChainBytes {
  CheckpointWriteStats stats;
  state::State tip;  // read back from disk
};

/// Runs the serial core 2 warm-up steps, then writes one checkpoint per
/// step for 8 cadences at `chain_cap` (0 = full writes only).  The tip
/// read back from disk must be the writer's state at step 10, bitwise.
ChainBytes write_cadences(state::InitialCondition ic, int chain_cap,
                          const char* tag) {
  core::DycoreConfig c;
  c.nx = 16;
  c.ny = 16;
  c.nz = 4;
  c.M = 2;
  c.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  constexpr int kWarmup = 2, kCadences = 8;
  core::SerialCore core(c);
  auto xi = core.make_state();
  core.initialize(xi, {.kind = ic});
  core.run(xi, kWarmup);
  const std::string path = temp_prefix(tag) + ".ckpt";
  remove_chain(path);
  CheckpointSession session(path,
                            {.chain_cap = chain_cap, .block_bytes = 4096});
  for (int cad = 1; cad <= kCadences; ++cad) {
    core.run(xi, 1);
    session.write(core.mesh(), core.decomp(), xi, kWarmup + cad,
                  120.0 * (kWarmup + cad));
  }
  ChainBytes out{session.stats(), core.make_state()};
  const auto tip =
      read_checkpoint_chain(path, core.mesh(), core.decomp(), out.tip);
  EXPECT_EQ(tip.header.step, kWarmup + kCadences) << tag;
  EXPECT_EQ(state::State::max_abs_diff(xi, out.tip, xi.interior()), 0.0)
      << tag << ": resume is not bitwise";
  remove_chain(path);
  return out;
}

TEST(CheckpointDelta, SteadyStateChainSavesBytesAndLandsOnItsFullTwin) {
  // The rest state barely changes between cadences, so the chain must
  // write at least 3x fewer bytes than full writes and still land on the
  // bytes its full-write twin put on disk.
  const auto rest = state::InitialCondition::kRestIsothermal;
  const ChainBytes full = write_cadences(rest, 0, "steady_full");
  const ChainBytes delta = write_cadences(rest, 8, "steady_delta");
  EXPECT_EQ(full.stats.delta_writes, 0u) << "deltas with the chain off";
  EXPECT_GE(static_cast<double>(delta.stats.full_equivalent_bytes),
            3.0 * static_cast<double>(delta.stats.bytes_written))
      << "the steady-state chain saved less than 3x";
  EXPECT_EQ(
      state::State::max_abs_diff(full.tip, delta.tip, full.tip.interior()),
      0.0)
      << "the chain diverged from its full-write twin";
}

TEST(CheckpointDelta, MovingStateChainNeverWritesMoreThanFullMode) {
  // On a planetary wave every block is dirty each cadence; a delta that
  // would cost the full file writes a fresh base instead.
  const auto wave = state::InitialCondition::kPlanetaryWave;
  const ChainBytes full = write_cadences(wave, 0, "wave_full");
  const ChainBytes delta = write_cadences(wave, 8, "wave_delta");
  EXPECT_EQ(full.stats.delta_writes, 0u) << "deltas with the chain off";
  EXPECT_LE(delta.stats.bytes_written, delta.stats.full_equivalent_bytes);
  EXPECT_EQ(
      state::State::max_abs_diff(full.tip, delta.tip, full.tip.interior()),
      0.0)
      << "the chain diverged from its full-write twin";
}

// --- crash-atomic reshard --------------------------------------------------

/// Writes a {1,2,1} checkpoint set whose field values are functions of
/// GLOBAL coordinates, so any resharding preserves them exactly.
void write_split_set(const std::string& prefix,
                     const mesh::LatLonMesh& mesh, std::int64_t step,
                     double salt) {
  for (int r = 0; r < 2; ++r) {
    mesh::DomainDecomp d(mesh, {1, 2, 1}, {0, r, 0});
    state::State s(d.lnx(), d.lny(), d.lnz(), core::halos_for_depth(1));
    for (int k = 0; k < d.lnz(); ++k)
      for (int j = 0; j < d.lny(); ++j)
        for (int i = 0; i < d.lnx(); ++i) {
          const int gj = d.gj(j);
          s.u()(i, j, k) = i + 100.0 * gj + k + salt;
          s.v()(i, j, k) = -2.0 * i + gj - k;
          s.phi()(i, j, k) = 0.5 * i * gj + salt;
        }
    for (int j = 0; j < d.lny(); ++j)
      for (int i = 0; i < d.lnx(); ++i)
        s.psa()(i, j) = 7.0 * i - d.gj(j) + salt;
    write_checkpoint(checkpoint_path(prefix, r), mesh, d, s, step,
                     120.0 * static_cast<double>(step));
  }
}

/// Reads the post-reshard {1,1,1} file and checks it against the global
/// pattern written by write_split_set.
void expect_merged_set(const std::string& prefix,
                       const core::DycoreConfig& c,
                       const mesh::LatLonMesh& mesh, std::int64_t step,
                       double salt) {
  mesh::DomainDecomp full(mesh, {1, 1, 1}, {0, 0, 0});
  state::State got(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  const auto hdr =
      read_checkpoint(checkpoint_path(prefix, 0), mesh, full, got);
  EXPECT_EQ(hdr.step, step);
  for (int k = 0; k < c.nz; ++k)
    for (int j = 0; j < c.ny; ++j)
      for (int i = 0; i < c.nx; ++i)
        ASSERT_EQ(got.u()(i, j, k), i + 100.0 * j + k + salt)
            << "merged state wrong at " << i << "," << j << "," << k;
}

void remove_set(const std::string& prefix) {
  for (int r = 0; r < 4; ++r) {
    remove_chain(checkpoint_path(prefix, r));
    std::remove((checkpoint_path(prefix, r) + ".new").c_str());
  }
  std::remove((prefix + ".reshard").c_str());
}

TEST(CheckpointReshard, CrashBeforeCommitLeavesTheOldSetResumable) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  const std::string prefix = temp_prefix("reshard_precommit");
  remove_set(prefix);
  write_split_set(prefix, mesh, 5, 1.0);

  // Crash while staging the second rank's file: before the commit marker.
  set_checkpoint_test_hook([](const std::string& event) {
    if (event == "staged:0")
      throw std::runtime_error("injected crash before commit");
  });
  EXPECT_THROW(reshard_checkpoints(prefix, mesh, {1, 2, 1}, {1, 1, 1}),
               std::runtime_error);
  set_checkpoint_test_hook(nullptr);
  EXPECT_FALSE(std::filesystem::exists(prefix + ".reshard"))
      << "a pre-commit crash must not leave a commit marker";

  // Recovery finds no marker: the OLD set is still the truth (and the
  // stage leftovers are swept).
  EXPECT_FALSE(recover_resharded_checkpoints(prefix));
  EXPECT_FALSE(
      std::filesystem::exists(checkpoint_path(prefix, 0) + ".new"));
  for (int r = 0; r < 2; ++r) {
    mesh::DomainDecomp d(mesh, {1, 2, 1}, {0, r, 0});
    state::State s(d.lnx(), d.lny(), d.lnz(), core::halos_for_depth(1));
    const auto hdr =
        read_checkpoint(checkpoint_path(prefix, r), mesh, d, s);
    EXPECT_EQ(hdr.step, 5) << "old rank " << r << " file was damaged";
  }
  // The retry completes end-to-end (reshard self-heals via recover).
  reshard_checkpoints(prefix, mesh, {1, 2, 1}, {1, 1, 1});
  expect_merged_set(prefix, c, mesh, 5, 1.0);
  remove_set(prefix);
}

TEST(CheckpointReshard, CrashAfterCommitRollsForward) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  const std::string prefix = temp_prefix("reshard_committed");
  remove_set(prefix);
  write_split_set(prefix, mesh, 6, 2.0);

  // Crash right after the commit marker landed, before any publish.
  set_checkpoint_test_hook([](const std::string& event) {
    if (event == "committed")
      throw std::runtime_error("injected crash after commit");
  });
  EXPECT_THROW(reshard_checkpoints(prefix, mesh, {1, 2, 1}, {1, 1, 1}),
               std::runtime_error);
  set_checkpoint_test_hook(nullptr);
  ASSERT_TRUE(std::filesystem::exists(prefix + ".reshard"));

  EXPECT_TRUE(recover_resharded_checkpoints(prefix))
      << "a committed reshard must be rolled forward";
  EXPECT_FALSE(std::filesystem::exists(prefix + ".reshard"));
  EXPECT_FALSE(std::filesystem::exists(checkpoint_path(prefix, 1)))
      << "the stale old-rank file survived the publish";
  expect_merged_set(prefix, c, mesh, 6, 2.0);
  EXPECT_FALSE(recover_resharded_checkpoints(prefix)) << "not idempotent";
  remove_set(prefix);
}

TEST(CheckpointReshard, CrashMidPublishRollsForwardIdempotently) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  const std::string prefix = temp_prefix("reshard_midpublish");
  remove_set(prefix);
  write_split_set(prefix, mesh, 7, 3.0);

  // {1,2,1} -> {2,1,1}: two staged files, crash between their renames.
  int published = 0;
  set_checkpoint_test_hook([&published](const std::string& event) {
    if (event.rfind("published:", 0) == 0 && ++published == 2)
      throw std::runtime_error("injected crash mid-publish");
  });
  EXPECT_THROW(reshard_checkpoints(prefix, mesh, {1, 2, 1}, {2, 1, 1}),
               std::runtime_error);
  set_checkpoint_test_hook(nullptr);
  ASSERT_TRUE(std::filesystem::exists(prefix + ".reshard"));

  EXPECT_TRUE(recover_resharded_checkpoints(prefix));
  EXPECT_FALSE(std::filesystem::exists(prefix + ".reshard"));
  for (int r = 0; r < 2; ++r) {
    mesh::DomainDecomp d(mesh, {2, 1, 1}, {r, 0, 0});
    state::State s(d.lnx(), d.lny(), d.lnz(), core::halos_for_depth(1));
    const auto hdr =
        read_checkpoint(checkpoint_path(prefix, r), mesh, d, s);
    EXPECT_EQ(hdr.step, 7);
    for (int k = 0; k < d.lnz(); ++k)
      for (int j = 0; j < d.lny(); ++j)
        for (int i = 0; i < d.lnx(); ++i)
          ASSERT_EQ(s.u()(i, j, k), d.gi(i) + 100.0 * d.gj(j) + k + 3.0);
  }
  remove_set(prefix);
}

TEST(Checkpoint, RestartedDistributedRunIsIdentical) {
  // run 4 steps == run 2, checkpoint, restore into fresh cores, run 2.
  const auto c = cfg();
  const std::string prefix = temp_prefix("restart");
  state::State straight, restarted;

  comm::Runtime::run(2, [&](comm::Context& ctx) {
    core::OriginalCore core(c, ctx, core::DecompScheme::kYZ, {1, 2, 1});
    auto xi = core.make_state();
    state::InitialOptions ic;
    ic.kind = state::InitialCondition::kPlanetaryWave;
    core.initialize(xi, ic);
    core.run(xi, 4);
    auto g = core::gather_global(core.op_context(), ctx, core.topology(),
                                 xi);
    if (ctx.world_rank() == 0) straight = std::move(g);
  });

  comm::Runtime::run(2, [&](comm::Context& ctx) {
    core::OriginalCore core(c, ctx, core::DecompScheme::kYZ, {1, 2, 1});
    auto xi = core.make_state();
    state::InitialOptions ic;
    ic.kind = state::InitialCondition::kPlanetaryWave;
    core.initialize(xi, ic);
    core.run(xi, 2);
    write_checkpoint(checkpoint_path(prefix, ctx.world_rank()),
                     mesh::LatLonMesh(c.nx, c.ny, c.nz), core.decomp(), xi,
                     2, 2 * c.dt_advect);
  });
  comm::Runtime::run(2, [&](comm::Context& ctx) {
    core::OriginalCore core(c, ctx, core::DecompScheme::kYZ, {1, 2, 1});
    auto xi = core.make_state();
    mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
    const auto hdr = read_checkpoint(
        checkpoint_path(prefix, ctx.world_rank()), mesh, core.decomp(), xi);
    EXPECT_EQ(hdr.step, 2);
    core.refresh_halos(xi);
    core.run(xi, 2);
    auto g = core::gather_global(core.op_context(), ctx, core.topology(),
                                 xi);
    if (ctx.world_rank() == 0) restarted = std::move(g);
    std::remove(checkpoint_path(prefix, ctx.world_rank()).c_str());
  });

  EXPECT_DOUBLE_EQ(
      state::State::max_abs_diff(straight, restarted, straight.interior()),
      0.0)
      << "a restart must be bitwise transparent";
}

// --- CA carry reshard ------------------------------------------------------
//
// The CA core's cross-step carry (deferred smoothing rows, stale C
// anchors, step counter) is written in the reshardable layout, so a
// degraded-pool reshard can redistribute it across a new Y-Z
// decomposition.  In exact mode (fresh_c_on_block_face off,
// kLinearOrdered z sums) the CA trajectory is bitwise invariant to the
// y split (S2 recomputes seam rows in the monolithic operator's exact
// addition order), so any py-change reshard must be bitwise transparent
// against an uninterrupted reference at the same pz.  Changing pz
// regroups the z-collective partial sums (each z rank folds its own
// levels before the rank-ordered combine), so pz-crossing reshards are
// exact in the carried rows but the resumed trajectory re-associates
// those sums — round-off class, same bound the core equivalence suite
// uses.

core::DycoreConfig ca_cfg() {
  auto c = cfg();  // nx 24, ny 16, nz 8, M 2 -> min CA block: 7 in y, 3 in z
  c.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  return c;
}

core::CAOptions exact_ca() {
  core::CAOptions o;
  o.fresh_c_on_block_face = false;
  o.approximate_iteration = false;
  return o;
}

/// Runs `upto` CA steps on `dims` and checkpoints state + carry per rank
/// (no finalize: the deferred smoothing stays pending, as at a real
/// preemption boundary).
void ca_run_and_checkpoint(const core::DycoreConfig& c,
                           std::array<int, 3> dims,
                           const std::string& prefix, int upto) {
  comm::Runtime::run(dims[0] * dims[1] * dims[2], [&](comm::Context& ctx) {
    core::CACore core(c, ctx, dims, exact_ca());
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kPlanetaryWave});
    for (int i = 0; i < upto; ++i) core.step(xi);
    CarryWriter w;
    core.save_carry(w);
    write_checkpoint(checkpoint_path(prefix, ctx.world_rank()),
                     mesh::LatLonMesh(c.nx, c.ny, c.nz), core.decomp(), xi,
                     upto, upto * c.dt_advect, w.bytes());
  });
}

/// Resumes the checkpoint set under `dims`, runs to `total`, finalizes,
/// and returns the gathered global state.
state::State ca_resume_and_finish(const core::DycoreConfig& c,
                                  std::array<int, 3> dims,
                                  const std::string& prefix, int total) {
  state::State out;
  comm::Runtime::run(dims[0] * dims[1] * dims[2], [&](comm::Context& ctx) {
    core::CACore core(c, ctx, dims, exact_ca());
    auto xi = core.make_state();
    std::vector<std::byte> carry;
    const auto hdr = read_checkpoint(
        checkpoint_path(prefix, ctx.world_rank()),
        mesh::LatLonMesh(c.nx, c.ny, c.nz), core.decomp(), xi, &carry);
    ASSERT_FALSE(carry.empty()) << "resharded set lost the carry block";
    CarryReader r(carry);
    core.restore_carry(r);
    core.refresh_halos(xi);
    for (int i = static_cast<int>(hdr.step); i < total; ++i) core.step(xi);
    core.finalize(xi);
    auto g = core::gather_global(core.op_context(), ctx, core.topology(), xi);
    if (ctx.world_rank() == 0) out = std::move(g);
  });
  return out;
}

/// Uninterrupted reference trajectory at `dims`.  Exact mode is bitwise
/// invariant to the y split, so the reference for a reshard between two
/// shapes only has to match their pz.
state::State ca_reference(const core::DycoreConfig& c, int total,
                          std::array<int, 3> dims = {1, 1, 1}) {
  state::State out;
  comm::Runtime::run(dims[0] * dims[1] * dims[2], [&](comm::Context& ctx) {
    core::CACore core(c, ctx, dims, exact_ca());
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kPlanetaryWave});
    for (int i = 0; i < total; ++i) core.step(xi);
    core.finalize(xi);
    auto g = core::gather_global(core.op_context(), ctx, core.topology(), xi);
    if (ctx.world_rank() == 0) out = std::move(g);
  });
  return out;
}

TEST(CheckpointReshard, CACarryReshardMatrixIsBitwise) {
  // py-changing reshards at every checkpoint step, shrink and re-grow,
  // each bit-for-bit against an uninterrupted reference run at the
  // matching pz (the bitwise equivalence class of the exact-mode CA
  // trajectory).
  const auto c = ca_cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  constexpr int kSteps = 4;

  struct Move {
    std::array<int, 3> from, to, ref;
    const char* what;
  };
  const Move moves[] = {
      {{1, 2, 1}, {1, 1, 1}, {1, 1, 1}, "shrink 2 -> 1"},
      {{1, 1, 1}, {1, 2, 1}, {1, 1, 1}, "re-grow 1 -> 2"},
      {{1, 2, 2}, {1, 1, 2}, {1, 1, 2}, "shrink 4 -> 2 under a z split"},
      {{1, 1, 2}, {1, 2, 2}, {1, 1, 2}, "re-grow 2 -> 4 under a z split"},
  };
  for (const Move& m : moves) {
    const state::State ref = ca_reference(c, kSteps, m.ref);
    ASSERT_GT(ref.interior().volume(), 0);
    for (int s = 1; s < kSteps; ++s) {  // every checkpoint step
      const std::string prefix =
          temp_prefix("ca_reshard_matrix") + std::to_string(s);
      remove_set(prefix);
      ca_run_and_checkpoint(c, m.from, prefix, s);
      reshard_checkpoints(prefix, mesh, m.from, m.to);
      const state::State got = ca_resume_and_finish(c, m.to, prefix, kSteps);
      EXPECT_DOUBLE_EQ(
          state::State::max_abs_diff(ref, got, ref.interior()), 0.0)
          << m.what << " resharded at step " << s
          << " did not resume bit-for-bit";
      remove_set(prefix);
    }
  }
}

TEST(CheckpointReshard, CACarryPzCrossingReshardStaysInRoundOffClass) {
  // Changing pz regroups the z-collective partial sums, so the resumed
  // trajectory re-associates those folds: the carried rows move exactly,
  // but the forward run can only match to round-off.  Same bound the
  // core equivalence suite uses for decomposition invariance.
  const auto c = ca_cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  constexpr int kSteps = 4;
  const state::State ref = ca_reference(c, kSteps);

  struct Move {
    std::array<int, 3> from, to;
    const char* what;
  };
  const Move moves[] = {
      {{1, 2, 2}, {1, 1, 1}, "shrink 4 -> 1"},
      {{1, 2, 1}, {1, 1, 2}, "re-split y -> z"},
  };
  for (const Move& m : moves)
    for (int s = 1; s < kSteps; ++s) {
      const std::string prefix =
          temp_prefix("ca_reshard_zcross") + std::to_string(s);
      remove_set(prefix);
      ca_run_and_checkpoint(c, m.from, prefix, s);
      reshard_checkpoints(prefix, mesh, m.from, m.to);
      const state::State got = ca_resume_and_finish(c, m.to, prefix, kSteps);
      EXPECT_LT(state::State::max_abs_diff(ref, got, ref.interior()), 1e-8)
          << m.what << " resharded at step " << s
          << " left the round-off class";
      remove_set(prefix);
    }
}

TEST(CheckpointReshard, CACarryCrashMidReshardRollsForwardBitwise) {
  // A crash after the commit marker but before publish: recovery must
  // roll the carry-bearing set forward, and the resumed run must still
  // be bitwise.
  const auto c = ca_cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  constexpr int kSteps = 4, kAt = 2;
  const std::string prefix = temp_prefix("ca_reshard_crash");
  remove_set(prefix);
  ca_run_and_checkpoint(c, {1, 2, 1}, prefix, kAt);

  set_checkpoint_test_hook([](const std::string& event) {
    if (event == "committed")
      throw std::runtime_error("injected crash after commit");
  });
  EXPECT_THROW(reshard_checkpoints(prefix, mesh, {1, 2, 1}, {1, 1, 1}),
               std::runtime_error);
  set_checkpoint_test_hook(nullptr);
  ASSERT_TRUE(std::filesystem::exists(prefix + ".reshard"));
  EXPECT_TRUE(recover_resharded_checkpoints(prefix));

  const state::State got = ca_resume_and_finish(c, {1, 1, 1}, prefix, kSteps);
  const state::State ref = ca_reference(c, kSteps);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(ref, got, ref.interior()), 0.0)
      << "a reshard interrupted mid-publish lost carry bitwise-ness";
  remove_set(prefix);
}

TEST(CheckpointReshard, CACarryBelowMinimumBlockFailsLoudly) {
  // ny 16 over py 3 gives y blocks of 6/5/5, below the carry's declared
  // minimum of 3M + 1 = 7: genuinely unrepresentable, must fail loudly
  // and leave the old set intact.
  const auto c = ca_cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  const std::string prefix = temp_prefix("ca_reshard_toosmall");
  remove_set(prefix);
  ca_run_and_checkpoint(c, {1, 1, 1}, prefix, 1);
  EXPECT_THROW(reshard_checkpoints(prefix, mesh, {1, 1, 1}, {1, 3, 1}),
               std::runtime_error);
  // The failed reshard staged nothing: the old set still resumes.
  const state::State got = ca_resume_and_finish(c, {1, 1, 1}, prefix, 2);
  const state::State ref = ca_reference(c, 2);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(ref, got, ref.interior()), 0.0);
  remove_set(prefix);
}

TEST(CheckpointReshard, OpaqueOrMixedCarryFailsLoudly) {
  const auto c = cfg();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);

  // Opaque: a carry block with an unknown magic cannot be redistributed.
  {
    const std::string prefix = temp_prefix("reshard_opaque");
    remove_set(prefix);
    CarryWriter w;
    w.put_u64(0xDEADBEEFull);  // not kReshardableCarryMagic
    for (int r = 0; r < 2; ++r) {
      mesh::DomainDecomp d(mesh, {1, 2, 1}, {0, r, 0});
      state::State s(d.lnx(), d.lny(), d.lnz(), core::halos_for_depth(1));
      s.fill(1.0);
      write_checkpoint(checkpoint_path(prefix, r), mesh, d, s, 1, 120.0,
                       w.bytes());
    }
    EXPECT_THROW(reshard_checkpoints(prefix, mesh, {1, 2, 1}, {1, 1, 1}),
                 std::runtime_error);
    remove_set(prefix);
  }

  // Mixed: one rank with a carry, one without — ambiguous, refuse loudly.
  {
    const auto cc = ca_cfg();
    mesh::LatLonMesh m2(cc.nx, cc.ny, cc.nz);
    const std::string prefix = temp_prefix("reshard_mixed");
    remove_set(prefix);
    ca_run_and_checkpoint(cc, {1, 2, 1}, prefix, 1);
    // Rewrite rank 1's file without its carry block.
    mesh::DomainDecomp d(m2, {1, 2, 1}, {0, 1, 0});
    state::State s(d.lnx(), d.lny(), d.lnz(),
                   core::halos_for_depth(3 * cc.M));
    read_checkpoint(checkpoint_path(prefix, 1), m2, d, s);
    write_checkpoint(checkpoint_path(prefix, 1), m2, d, s, 1,
                     cc.dt_advect);
    EXPECT_THROW(reshard_checkpoints(prefix, m2, {1, 2, 1}, {1, 1, 1}),
                 std::runtime_error);
    remove_set(prefix);
  }
}

/// Carried fields as (is3d, {hx, hy, hz}).
using CarryFields = std::vector<std::pair<bool, std::array<int, 3>>>;

/// A reshardable carry block for `c`'s single-rank {1,1,1} block with
/// zero-filled fields of the given shapes, under the given declared
/// minimum block extents.
std::vector<std::byte> carry_with_fields(const core::DycoreConfig& c,
                                         int min_lny, int min_lnz,
                                         const CarryFields& fields) {
  CarryWriter w;
  w.put_u64(kReshardableCarryMagic);
  w.put_u64(static_cast<std::uint64_t>(min_lny));
  w.put_u64(static_cast<std::uint64_t>(min_lnz));
  w.put_u64(2);  // scalars: step count, stale-C flag
  w.put_i64(1);
  w.put_i64(1);
  w.put_u64(fields.size());
  for (const auto& [is3d, h] : fields) {
    const std::array<int, 3> n{c.nx, c.ny, is3d ? c.nz : 1};
    w.put_u64(is3d ? 1 : 0);
    for (int pass = 0; pass < 2; ++pass)  // global extents, then the block
      for (int v : n) w.put_u64(static_cast<std::uint64_t>(v));
    for (int v : h) w.put_u64(static_cast<std::uint64_t>(v));
    for (int d = 0; d < 3; ++d) w.put_u64(0);  // origin
    w.put_doubles(std::vector<double>(
        static_cast<std::size_t>(n[0] + 2 * h[0]) * (n[1] + 2 * h[1]) *
        (n[2] + 2 * h[2])));
  }
  return w.take();
}

TEST(CheckpointReshard, OldLayoutCACarryFailsLoudly) {
  // The CA carry used to hold ten workspace fields (the four C products
  // and six column anchors) plus two pre-smoothing rows, every array with
  // a 3M-deep z halo; later the four C products plus the two
  // pre-smoothing rows.  None of these shapes restores into today's core.
  const auto c = ca_cfg();
  const int M = c.M;
  const std::array<int, 3> c3{3, 3 * M + 1, 3 * M + 1};  // sdot, w, phi_geo
  const std::array<int, 3> c2{3, 3 * M + 2, 0};          // 2-D fields
  const std::array<int, 3> pre3{3, 3 * M + 1, 3 * M};    // pre phi
  const CarryFields twelve = [&] {
    CarryFields f(3, {true, c3});
    f.insert(f.end(), 7, {false, c2});
    f.push_back({true, pre3});
    f.push_back({false, c2});
    return f;
  }();
  const CarryFields deep_z{{true, c3}, {true, c3},  {true, c3},
                           {false, c2}, {true, pre3}, {false, c2}};
  // Today's C products (z 3 + 1 for VertDiag's interface arrays) as the
  // control, and the same with the pre-smoothing rows (4 deep in y, flat
  // in z) still appended.
  const std::array<int, 3> now3{3, 3 * M + 1, 4};
  const CarryFields today{
      {true, now3}, {true, now3}, {true, now3}, {false, c2}};
  const CarryFields with_pre = [&] {
    CarryFields f = today;
    f.push_back({true, {3, 4, 0}});
    f.push_back({false, {3, 4, 0}});
    return f;
  }();

  comm::Runtime::run(1, [&](comm::Context& ctx) {
    for (const CarryFields* fields : {&twelve, &deep_z, &with_pre}) {
      core::CACore core(c, ctx, {1, 1, 1}, exact_ca());
      const auto blob = carry_with_fields(c, 3 * M + 1, 3, *fields);
      CarryReader r(blob);
      EXPECT_THROW(core.restore_carry(r), std::runtime_error)
          << fields->size() << "-field carry";
    }
    core::CACore core(c, ctx, {1, 1, 1}, exact_ca());
    const auto blob = carry_with_fields(c, 3 * M + 1, 3, today);
    CarryReader r(blob);
    EXPECT_NO_THROW(core.restore_carry(r));
  });
}

}  // namespace
}  // namespace ca::util
