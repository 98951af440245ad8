#include "util/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ca::util {
namespace {

std::atomic<std::uint64_t> g_files_written{0};
std::atomic<std::uint64_t> g_bytes_written{0};
std::atomic<std::uint64_t> g_files_read{0};
std::atomic<std::uint64_t> g_bytes_read{0};
std::atomic<std::uint64_t> g_fsyncs{0};

/// Test-only reshard crash injection (see set_checkpoint_test_hook).
std::function<void(const std::string&)> g_test_hook;

void fire_hook(const std::string& event) {
  if (g_test_hook) g_test_hook(event);
}

/// Closes on scope exit without error reporting — the READ path and
/// error-unwind cleanup only.  The write path closes explicitly and
/// checks the result: fclose flushes the stdio buffer, and a failed
/// final flush must not report a successful checkpoint.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void write_all(std::FILE* f, const void* data, std::size_t bytes,
               const std::string& path) {
  if (std::fwrite(data, 1, bytes, f) != bytes)
    throw std::runtime_error("checkpoint write failed: " + path);
}

/// Durability half of the rename dance: rename() only orders the
/// directory entry, not the directory itself — fsync the parent so the
/// committed name survives a power loss too.  Best-effort: some
/// filesystems reject directory fsync, and by this point the data fsync
/// already succeeded.
void fsync_parent_dir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Atomic + durable file publish: assemble at `<path>.tmp`, flush,
/// fsync, close (checked), rename over `path`, fsync the directory.  A
/// crash anywhere before the rename leaves the previous file intact; a
/// power loss after return cannot surface an empty or torn file.
void atomic_write_file(const std::string& path,
                       std::span<const std::byte> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* raw = std::fopen(tmp.c_str(), "wb");
  if (raw == nullptr)
    throw std::runtime_error("cannot open checkpoint: " + tmp);
  try {
    if (!bytes.empty()) write_all(raw, bytes.data(), bytes.size(), tmp);
    if (std::fflush(raw) != 0)
      throw std::runtime_error("checkpoint flush failed: " + tmp);
    if (::fsync(::fileno(raw)) != 0)
      throw std::runtime_error("checkpoint fsync failed: " + tmp);
    g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    std::fclose(raw);
    std::remove(tmp.c_str());
    throw;
  }
  if (std::fclose(raw) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint rename failed: " + tmp + " -> " +
                             path + ": " + std::strerror(err));
  }
  fsync_parent_dir(path);
  g_files_written.fetch_add(1, std::memory_order_relaxed);
  g_bytes_written.fetch_add(bytes.size(), std::memory_order_relaxed);
}

/// Reads the whole file; throws on a missing file ("cannot open") only —
/// callers that probe optional chain elements use slurp_if_exists.
std::vector<std::byte> slurp_file(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("cannot open checkpoint: " + path);
  std::vector<std::byte> bytes;
  std::array<std::byte, 1 << 16> chunk;
  for (;;) {
    const std::size_t got =
        std::fread(chunk.data(), 1, chunk.size(), f.get());
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + got);
    if (got < chunk.size()) break;
  }
  g_files_read.fetch_add(1, std::memory_order_relaxed);
  g_bytes_read.fetch_add(bytes.size(), std::memory_order_relaxed);
  return bytes;
}

bool slurp_if_exists(const std::string& path, std::vector<std::byte>* out) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return false;
  *out = slurp_file(path);
  return true;
}

std::vector<double> pack_state(const mesh::DomainDecomp& d,
                               const state::State& xi) {
  std::vector<double> buf;
  buf.reserve(static_cast<std::size_t>(d.lnx()) * d.lny() *
              (3 * d.lnz() + 1));
  auto pack3 = [&](const util::Array3D<double>& f) {
    for (int k = 0; k < d.lnz(); ++k)
      for (int j = 0; j < d.lny(); ++j)
        for (int i = 0; i < d.lnx(); ++i) buf.push_back(f(i, j, k));
  };
  pack3(xi.u());
  pack3(xi.v());
  pack3(xi.phi());
  for (int j = 0; j < d.lny(); ++j)
    for (int i = 0; i < d.lnx(); ++i) buf.push_back(xi.psa()(i, j));
  return buf;
}

/// Slice-by-8 CRC-32 tables: table[0] is the classic byte-at-a-time
/// table; table[t][b] extends it so eight bytes fold per iteration.
/// Same polynomial (0xEDB88320), bit-for-bit the same digests as the
/// one-table loop — only faster, which matters because every checkpoint
/// write, chain read, and replica fetch runs a full pass over the image.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][n] = c;
  }
  for (std::uint32_t n = 0; n < 256; ++n)
    for (int t = 1; t < 8; ++t)
      tables[t][n] =
          tables[0][tables[t - 1][n] & 0xFFu] ^ (tables[t - 1][n] >> 8);
  return tables;
}

/// Identity hash of a base file: the chain's deltas record it so a delta
/// from an older chain never applies to a freshly rewritten base.  The
/// header prefix (step, time, payload/carry CRCs) pins the base's exact
/// content without the base format having to store anything new.
std::uint64_t base_identity(std::span<const std::byte> image) {
  return crc32(image.first(std::min(sizeof(CheckpointHeader), image.size())));
}

/// Removes every delta sidecar of `base_path` (`<base>.d<seq>` for any
/// seq) by a bounded directory scan rather than sequential probing: a
/// hole in the sequence — a delta deleted by hand, or lost to a crash —
/// must not shield the orphans behind it from the sweep forever.
void remove_stale_deltas(const std::string& base_path) {
  const std::filesystem::path base(base_path);
  std::filesystem::path dir = base.parent_path();
  if (dir.empty()) dir = ".";
  const std::string want = base.filename().string() + ".d";
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec), end;
  std::vector<std::string> victims;
  for (; !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= want.size() ||
        name.compare(0, want.size(), want) != 0)
      continue;
    const std::string tail = name.substr(want.size());
    if (!std::all_of(tail.begin(), tail.end(), [](unsigned char c) {
          return std::isdigit(c) != 0;
        }))
      continue;
    victims.push_back(it->path().string());
  }
  for (const std::string& v : victims) std::remove(v.c_str());
}

}  // namespace

void remove_checkpoint_set(const std::string& prefix, int ranks) {
  for (int r = 0; r < ranks; ++r) {
    std::remove(checkpoint_path(prefix, r).c_str());
    remove_stale_deltas(checkpoint_path(prefix, r));
  }
}

CheckpointIoCounters checkpoint_io() {
  CheckpointIoCounters c;
  c.files_written = g_files_written.load(std::memory_order_relaxed);
  c.bytes_written = g_bytes_written.load(std::memory_order_relaxed);
  c.files_read = g_files_read.load(std::memory_order_relaxed);
  c.bytes_read = g_bytes_read.load(std::memory_order_relaxed);
  c.fsyncs = g_fsyncs.load(std::memory_order_relaxed);
  return c;
}

void reset_checkpoint_io() {
  g_files_written.store(0, std::memory_order_relaxed);
  g_bytes_written.store(0, std::memory_order_relaxed);
  g_files_read.store(0, std::memory_order_relaxed);
  g_bytes_read.store(0, std::memory_order_relaxed);
  g_fsyncs.store(0, std::memory_order_relaxed);
}

void set_checkpoint_test_hook(
    std::function<void(const std::string&)> hook) {
  g_test_hook = std::move(hook);
}

std::uint32_t crc32(std::span<const std::byte> data) {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables =
      make_crc_tables();
  const auto& t = tables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    // Little-endian word composition by construction (endian-agnostic).
    std::uint32_t lo = static_cast<std::uint32_t>(p[0]) |
                       static_cast<std::uint32_t>(p[1]) << 8 |
                       static_cast<std::uint32_t>(p[2]) << 16 |
                       static_cast<std::uint32_t>(p[3]) << 24;
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             static_cast<std::uint32_t>(p[5]) << 8 |
                             static_cast<std::uint32_t>(p[6]) << 16 |
                             static_cast<std::uint32_t>(p[7]) << 24;
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n)
    crc = t[0][(crc ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void CarryWriter::put_u64(std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  buf_.insert(buf_.end(), p, p + sizeof(v));
}

void CarryWriter::put_i64(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void CarryWriter::put_doubles(std::span<const double> v) {
  put_u64(v.size());
  const auto bytes = std::as_bytes(v);
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void CarryReader::take(void* dst, std::size_t bytes) {
  if (bytes > data_.size() - pos_)
    throw std::runtime_error(
        "checkpoint carry block truncated: wanted " + std::to_string(bytes) +
        " bytes, " + std::to_string(data_.size() - pos_) + " left");
  std::memcpy(dst, data_.data() + pos_, bytes);
  pos_ += bytes;
}

std::uint64_t CarryReader::get_u64() {
  std::uint64_t v = 0;
  take(&v, sizeof(v));
  return v;
}

std::int64_t CarryReader::get_i64() {
  return static_cast<std::int64_t>(get_u64());
}

void CarryReader::get_doubles(std::span<double> out) {
  const std::uint64_t count = get_u64();
  if (count != out.size())
    throw std::runtime_error(
        "checkpoint carry field size mismatch: stored " +
        std::to_string(count) + " doubles, core expects " +
        std::to_string(out.size()) +
        " (carry written by a differently-configured core?)");
  take(out.data(), out.size() * sizeof(double));
}

void CarryReader::expect_end() const {
  if (pos_ != data_.size())
    throw std::runtime_error(
        "checkpoint carry block has " + std::to_string(data_.size() - pos_) +
        " unread trailing bytes (format mismatch)");
}

std::string checkpoint_path(const std::string& prefix, int rank) {
  return prefix + ".rank" + std::to_string(rank) + ".ckpt";
}

std::string delta_path(const std::string& path, int seq) {
  return path + ".d" + std::to_string(seq);
}

std::vector<std::byte> build_checkpoint_image(
    const mesh::LatLonMesh& mesh, const mesh::DomainDecomp& decomp,
    const state::State& xi, std::int64_t step, double time_seconds,
    std::span<const std::byte> carry, std::uint32_t health) {
  CheckpointHeader hdr;
  hdr.health = health;
  hdr.nx = mesh.nx();
  hdr.ny = mesh.ny();
  hdr.nz = mesh.nz();
  hdr.lnx = decomp.lnx();
  hdr.lny = decomp.lny();
  hdr.lnz = decomp.lnz();
  hdr.x0 = decomp.xr().begin;
  hdr.y0 = decomp.yr().begin;
  hdr.z0 = decomp.zr().begin;
  hdr.step = step;
  hdr.time_seconds = time_seconds;

  const auto buf = pack_state(decomp, xi);
  hdr.payload_crc = crc32(std::as_bytes(std::span<const double>(buf)));
  hdr.carry_bytes = carry.size();
  hdr.carry_crc = crc32(carry);

  std::vector<std::byte> image;
  image.reserve(sizeof(hdr) + buf.size() * sizeof(double) + carry.size());
  const auto* hp = reinterpret_cast<const std::byte*>(&hdr);
  image.insert(image.end(), hp, hp + sizeof(hdr));
  const auto payload = std::as_bytes(std::span<const double>(buf));
  image.insert(image.end(), payload.begin(), payload.end());
  image.insert(image.end(), carry.begin(), carry.end());
  return image;
}

CheckpointHeader parse_checkpoint_image(std::span<const std::byte> image,
                                        const mesh::LatLonMesh& mesh,
                                        const mesh::DomainDecomp& decomp,
                                        state::State& xi,
                                        std::vector<std::byte>* carry,
                                        const std::string& what) {
  if (carry != nullptr) carry->clear();
  std::size_t pos = 0;
  auto take = [&](void* dst, std::size_t bytes) {
    if (bytes > image.size() - pos)
      throw std::runtime_error("checkpoint read failed (truncated?): " +
                               what);
    std::memcpy(dst, image.data() + pos, bytes);
    pos += bytes;
  };

  CheckpointHeader hdr;
  take(&hdr, sizeof(hdr));
  const CheckpointHeader expect;
  if (hdr.magic != expect.magic)
    throw std::runtime_error("not a ca-agcm checkpoint: " + what);
  if (hdr.version != expect.version)
    throw std::runtime_error("unsupported checkpoint version: " + what);
  if (hdr.nx != mesh.nx() || hdr.ny != mesh.ny() || hdr.nz != mesh.nz())
    throw std::runtime_error("checkpoint mesh mismatch: " + what);
  if (hdr.lnx != decomp.lnx() || hdr.lny != decomp.lny() ||
      hdr.lnz != decomp.lnz() || hdr.x0 != decomp.xr().begin ||
      hdr.y0 != decomp.yr().begin || hdr.z0 != decomp.zr().begin)
    throw std::runtime_error(
        "checkpoint block/decomposition mismatch: " + what);

  const std::size_t count = static_cast<std::size_t>(hdr.lnx) * hdr.lny *
                                (3 * static_cast<std::size_t>(hdr.lnz)) +
                            static_cast<std::size_t>(hdr.lnx) * hdr.lny;
  std::vector<double> buf(count);
  take(buf.data(), buf.size() * sizeof(double));

  if (crc32(std::as_bytes(std::span<const double>(buf))) != hdr.payload_crc)
    throw std::runtime_error(
        "checkpoint payload CRC mismatch (bit rot?): " + what);

  if (carry != nullptr && hdr.carry_bytes > 0) {
    carry->resize(hdr.carry_bytes);
    take(carry->data(), carry->size());
    if (crc32(*carry) != hdr.carry_crc)
      throw std::runtime_error(
          "checkpoint carry CRC mismatch (bit rot?): " + what);
  }

  std::size_t idx = 0;
  auto unpack3 = [&](util::Array3D<double>& fld) {
    for (int k = 0; k < decomp.lnz(); ++k)
      for (int j = 0; j < decomp.lny(); ++j)
        for (int i = 0; i < decomp.lnx(); ++i) fld(i, j, k) = buf[idx++];
  };
  unpack3(xi.u());
  unpack3(xi.v());
  unpack3(xi.phi());
  for (int j = 0; j < decomp.lny(); ++j)
    for (int i = 0; i < decomp.lnx(); ++i) xi.psa()(i, j) = buf[idx++];
  return hdr;
}

void write_checkpoint(const std::string& path,
                      const mesh::LatLonMesh& mesh,
                      const mesh::DomainDecomp& decomp,
                      const state::State& xi, std::int64_t step,
                      double time_seconds,
                      std::span<const std::byte> carry,
                      std::uint32_t health) {
  atomic_write_file(
      path, build_checkpoint_image(mesh, decomp, xi, step, time_seconds,
                                   carry, health));
}

CheckpointHeader read_checkpoint(const std::string& path,
                                 const mesh::LatLonMesh& mesh,
                                 const mesh::DomainDecomp& decomp,
                                 state::State& xi,
                                 std::vector<std::byte>* carry) {
  const std::vector<std::byte> image = slurp_file(path);
  return parse_checkpoint_image(image, mesh, decomp, xi, carry, path);
}

ChainReadResult read_checkpoint_chain(const std::string& path,
                                      const mesh::LatLonMesh& mesh,
                                      const mesh::DomainDecomp& decomp,
                                      state::State& xi,
                                      std::vector<std::byte>* carry,
                                      const ChainReadOptions& opts) {
  std::vector<std::byte> image = slurp_file(path);
  if (image.size() < sizeof(CheckpointHeader))
    throw std::runtime_error("checkpoint read failed (truncated?): " + path);
  CheckpointHeader peek;
  // void* cast: the header has default member initializers (so it is not
  // "trivial" for -Wclass-memaccess) but is trivially copyable.
  std::memcpy(static_cast<void*>(&peek), image.data(), sizeof(peek));
  CheckpointHeader expect;
  if (peek.magic != expect.magic)
    throw std::runtime_error("not a ca-agcm checkpoint: " + path);
  if (opts.max_step >= 0 && peek.step > opts.max_step)
    throw std::runtime_error(
        "checkpoint chain under " + path + " starts at step " +
        std::to_string(peek.step) + ", past the requested step " +
        std::to_string(opts.max_step));

  const std::uint64_t base_id = base_identity(image);
  ChainReadResult res;
  std::int64_t tip_step = peek.step;
  const DeltaHeader dexpect;
  for (int seq = 1; !(opts.max_step >= 0 && tip_step == opts.max_step);
       ++seq) {
    std::vector<std::byte> dbytes;
    if (!slurp_if_exists(delta_path(path, seq), &dbytes)) break;
    // Any integrity failure from here on ends the chain at the last
    // intact element — a torn or bit-rotted delta must degrade recovery,
    // never poison it.
    if (dbytes.size() < sizeof(DeltaHeader)) {
      res.truncated_by_corruption = true;
      break;
    }
    DeltaHeader dh;
    std::memcpy(&dh, dbytes.data(), sizeof(dh));
    if (dh.magic != dexpect.magic || dh.version != 4) {
      res.truncated_by_corruption = true;
      break;
    }
    // A stale delta from a chain whose base was since rewritten: not
    // corruption, just no longer reachable — the fresh base is the tip.
    if (dh.base_id != base_id ||
        dh.seq != static_cast<std::uint32_t>(seq))
      break;
    if (opts.max_step >= 0 && dh.step > opts.max_step) break;
    const std::span<const std::byte> payload =
        std::span<const std::byte>(dbytes).subspan(sizeof(DeltaHeader));
    if (dh.block_bytes == 0 || dh.image_bytes != image.size() ||
        crc32(payload) != dh.delta_crc) {
      res.truncated_by_corruption = true;
      break;
    }
    const std::size_t bb = dh.block_bytes;
    const std::size_t nblocks = (image.size() + bb - 1) / bb;
    const std::size_t index_bytes =
        static_cast<std::size_t>(dh.ndirty) * sizeof(std::uint32_t);
    if (payload.size() < index_bytes) {
      res.truncated_by_corruption = true;
      break;
    }
    std::vector<std::uint32_t> dirty(dh.ndirty);
    if (!dirty.empty())
      std::memcpy(dirty.data(), payload.data(), index_bytes);
    std::size_t data_bytes = 0;
    bool bad = false;
    for (std::uint32_t b : dirty) {
      if (b >= nblocks) {
        bad = true;
        break;
      }
      data_bytes += std::min(bb, image.size() - b * bb);
    }
    if (bad || payload.size() != index_bytes + data_bytes) {
      res.truncated_by_corruption = true;
      break;
    }
    // Patch a scratch copy so a failed end-to-end CRC leaves the intact
    // prefix's image untouched.
    std::vector<std::byte> next = image;
    std::size_t cursor = index_bytes;
    for (std::uint32_t b : dirty) {
      const std::size_t len = std::min(bb, next.size() - b * bb);
      std::memcpy(next.data() + b * bb, payload.data() + cursor, len);
      cursor += len;
    }
    if (crc32(next) != dh.image_crc) {
      res.truncated_by_corruption = true;
      break;
    }
    image = std::move(next);
    tip_step = dh.step;
    ++res.deltas_applied;
  }
  if (opts.max_step >= 0 && tip_step != opts.max_step)
    throw std::runtime_error(
        "checkpoint chain under " + path + " has no element at step " +
        std::to_string(opts.max_step) + " (intact tip is step " +
        std::to_string(tip_step) + ")");
  res.header = parse_checkpoint_image(image, mesh, decomp, xi, carry, path);
  return res;
}

CheckpointSession::CheckpointSession(std::string path, DeltaOptions opts)
    : path_(std::move(path)), opts_(opts) {}

void CheckpointSession::write(const mesh::LatLonMesh& mesh,
                              const mesh::DomainDecomp& decomp,
                              const state::State& xi, std::int64_t step,
                              double time_seconds,
                              std::span<const std::byte> carry,
                              std::uint32_t health) {
  std::vector<std::byte> img = build_checkpoint_image(
      mesh, decomp, xi, step, time_seconds, carry, health);
  ++stats_.cadences;
  stats_.full_equivalent_bytes += img.size();
  bool full = image_.empty() || opts_.chain_cap <= 0 ||
              chain_len_ >= opts_.chain_cap ||
              img.size() != image_.size();
  const std::size_t bb = std::max<std::size_t>(1, opts_.block_bytes);
  std::vector<std::uint32_t> dirty;
  if (!full) {
    const std::size_t nblocks = (img.size() + bb - 1) / bb;
    for (std::size_t b = 0; b < nblocks; ++b) {
      const std::size_t len = std::min(bb, img.size() - b * bb);
      if (std::memcmp(img.data() + b * bb, image_.data() + b * bb, len) !=
          0)
        dirty.push_back(static_cast<std::uint32_t>(b));
    }
    // A delta touching (nearly) every block costs more than the full
    // file it encodes; write a fresh base instead, which also re-anchors
    // the chain.  Delta mode is therefore never worse than full mode —
    // an all-active workload just degenerates to it.
    std::size_t delta_bytes = sizeof(DeltaHeader) +
                              dirty.size() * sizeof(std::uint32_t);
    for (std::uint32_t b : dirty)
      delta_bytes += std::min(bb, img.size() - b * bb);
    if (delta_bytes >= img.size()) full = true;
  }
  if (full) {
    atomic_write_file(path_, img);
    base_id_ = base_identity(img);
    // Retire the old chain.  Correctness does not depend on this — the
    // deltas already fail the new base_id — but leaving them would grow
    // the directory forever.
    remove_stale_deltas(path_);
    chain_len_ = 0;
    ++stats_.full_writes;
    stats_.bytes_written += img.size();
  } else {
    DeltaHeader dh;
    dh.block_bytes = static_cast<std::uint32_t>(bb);
    dh.nx = mesh.nx();
    dh.ny = mesh.ny();
    dh.nz = mesh.nz();
    dh.lnx = decomp.lnx();
    dh.lny = decomp.lny();
    dh.lnz = decomp.lnz();
    dh.x0 = decomp.xr().begin;
    dh.y0 = decomp.yr().begin;
    dh.z0 = decomp.zr().begin;
    dh.seq = static_cast<std::uint32_t>(chain_len_ + 1);
    dh.step = step;
    dh.time_seconds = time_seconds;
    dh.base_id = base_id_;
    dh.image_bytes = img.size();
    dh.ndirty = static_cast<std::uint32_t>(dirty.size());
    dh.image_crc = crc32(img);

    std::vector<std::byte> payload;
    payload.reserve(dirty.size() * (sizeof(std::uint32_t) + bb));
    const auto* ip = reinterpret_cast<const std::byte*>(dirty.data());
    payload.insert(payload.end(), ip,
                   ip + dirty.size() * sizeof(std::uint32_t));
    for (std::uint32_t b : dirty) {
      const std::size_t len = std::min(bb, img.size() - b * bb);
      payload.insert(payload.end(), img.data() + b * bb,
                     img.data() + b * bb + len);
    }
    dh.delta_crc = crc32(payload);

    std::vector<std::byte> file;
    file.reserve(sizeof(dh) + payload.size());
    const auto* hp = reinterpret_cast<const std::byte*>(&dh);
    file.insert(file.end(), hp, hp + sizeof(dh));
    file.insert(file.end(), payload.begin(), payload.end());
    atomic_write_file(delta_path(path_, chain_len_ + 1), file);
    ++chain_len_;
    ++stats_.delta_writes;
    stats_.bytes_written += file.size();
  }
  image_ = std::move(img);
}

namespace {

std::string reshard_marker_path(const std::string& prefix) {
  return prefix + ".reshard";
}

/// x-fastest rank layout shared by every reshard path.
mesh::DomainDecomp reshard_rank_decomp(const mesh::LatLonMesh& mesh,
                                       std::array<int, 3> dims, int r) {
  const std::array<int, 3> coords{r % dims[0], (r / dims[0]) % dims[1],
                                  r / (dims[0] * dims[1])};
  return mesh::DomainDecomp(mesh, dims, coords);
}

std::string dims_str(std::array<int, 3> d) {
  return "{" + std::to_string(d[0]) + "," + std::to_string(d[1]) + "," +
         std::to_string(d[2]) + "}";
}

/// One field of a reshardable core-carry block (see the format doc at
/// kReshardableCarryMagic).  Extent order is {x, y, z}; 2-D fields are
/// pinned to one z layer with no z halo.
struct CarryFieldGeom {
  bool is3d = false;
  std::array<std::uint64_t, 3> gn{}, ln{}, halo{}, origin{};
  std::vector<double> data;
};

struct ParsedCarry {
  std::uint64_t min_lny = 1, min_lnz = 1;
  std::vector<std::int64_t> scalars;
  std::vector<CarryFieldGeom> fields;
};

ParsedCarry parse_reshardable_carry(std::span<const std::byte> blob,
                                    const std::string& what) {
  CarryReader r(blob);
  if (r.get_u64() != kReshardableCarryMagic)
    throw std::runtime_error(
        "reshard_checkpoints: " + what +
        " carries a decomposition-opaque core-carry block (not the "
        "reshardable format), so the set cannot be resharded");
  ParsedCarry pc;
  pc.min_lny = r.get_u64();
  pc.min_lnz = r.get_u64();
  const std::uint64_t nscalars = r.get_u64();
  if (pc.min_lny == 0 || pc.min_lnz == 0 || nscalars > 1024)
    throw std::runtime_error("reshard_checkpoints: malformed carry: " + what);
  pc.scalars.reserve(nscalars);
  for (std::uint64_t i = 0; i < nscalars; ++i)
    pc.scalars.push_back(r.get_i64());
  const std::uint64_t nfields = r.get_u64();
  if (nfields > 4096)
    throw std::runtime_error("reshard_checkpoints: malformed carry: " + what);
  pc.fields.resize(nfields);
  for (CarryFieldGeom& f : pc.fields) {
    const std::uint64_t is3d = r.get_u64();
    if (is3d > 1)
      throw std::runtime_error(
          "reshard_checkpoints: malformed carry field tag: " + what);
    f.is3d = is3d == 1;
    for (auto* trio : {&f.gn, &f.ln, &f.halo, &f.origin})
      for (std::uint64_t& v : *trio) v = r.get_u64();
    std::uint64_t count = 1;
    for (int d = 0; d < 3; ++d) {
      if (f.ln[d] == 0 || f.gn[d] == 0 || f.gn[d] > (1u << 24) ||
          f.halo[d] > (1u << 24) || f.origin[d] + f.ln[d] > f.gn[d] ||
          (!f.is3d && d == 2 &&
           (f.gn[2] != 1 || f.ln[2] != 1 || f.halo[2] != 0)))
        throw std::runtime_error(
            "reshard_checkpoints: malformed carry field geometry: " + what);
      count *= f.ln[d] + 2 * f.halo[d];
    }
    f.data.resize(count);
    r.get_doubles(f.data);
  }
  r.expect_end();
  return pc;
}

/// Redistributes a full set of reshardable carry blobs (one per old
/// rank) onto the new decomposition.  Each field is assembled on a
/// halo-padded global grid — owned interiors everywhere, plus the
/// physical-boundary halo extensions from the edge blocks — and cut
/// into the new blocks with unchanged halo depths, so internal-seam
/// halos come out holding the owning block's values, exactly what a
/// halo exchange would deliver.  Rows that map 1:1 are preserved
/// bitwise.  Throws on opaque/inconsistent carries or a new shape below
/// the carry's declared minimum block extents.
std::vector<std::vector<std::byte>> reshard_carries(
    const std::string& prefix, const mesh::LatLonMesh& mesh,
    std::array<int, 3> old_dims, std::array<int, 3> new_dims,
    const std::vector<std::vector<std::byte>>& blobs) {
  const int old_count = old_dims[0] * old_dims[1] * old_dims[2];
  const int new_count = new_dims[0] * new_dims[1] * new_dims[2];
  if (old_dims[0] != 1 || new_dims[0] != 1)
    throw std::runtime_error(
        "reshard_checkpoints: core carries under " + prefix +
        " can only be resharded across Y-Z process grids (px == 1), got " +
        dims_str(old_dims) + " -> " + dims_str(new_dims));

  std::vector<ParsedCarry> parsed;
  parsed.reserve(static_cast<std::size_t>(old_count));
  for (int r = 0; r < old_count; ++r)
    parsed.push_back(parse_reshardable_carry(
        blobs[static_cast<std::size_t>(r)],
        "rank " + std::to_string(r) + " of " + prefix));
  const ParsedCarry& ref = parsed[0];
  for (int r = 1; r < old_count; ++r)
    if (parsed[r].scalars != ref.scalars ||
        parsed[r].fields.size() != ref.fields.size() ||
        parsed[r].min_lny != ref.min_lny ||
        parsed[r].min_lnz != ref.min_lnz)
      throw std::runtime_error(
          "reshard_checkpoints: inconsistent core-carry set under " +
          prefix);

  // Representability, loudly and before any work: a block smaller than
  // the carry's declared minimum cannot hold the carried halo rows (for
  // the CA core this is the ny/py >= 3M + 1 deep-halo bound).
  for (int r = 0; r < new_count; ++r) {
    const mesh::DomainDecomp d = reshard_rank_decomp(mesh, new_dims, r);
    if ((new_dims[1] > 1 &&
         static_cast<std::uint64_t>(d.lny()) < ref.min_lny) ||
        (new_dims[2] > 1 &&
         static_cast<std::uint64_t>(d.lnz()) < ref.min_lnz))
      throw std::runtime_error(
          "reshard_checkpoints: core carry under " + prefix +
          " cannot be resharded to " + dims_str(new_dims) + ": block of "
          "rank " + std::to_string(r) + " (" + std::to_string(d.lny()) +
          " x " + std::to_string(d.lnz()) +
          " in y x z) is below the carry's minimum block extents (" +
          std::to_string(ref.min_lny) + " x " +
          std::to_string(ref.min_lnz) + ")");
  }

  std::vector<std::vector<CarryFieldGeom>> cut(
      static_cast<std::size_t>(new_count));
  for (auto& v : cut) v.reserve(ref.fields.size());
  for (std::size_t fi = 0; fi < ref.fields.size(); ++fi) {
    const CarryFieldGeom& f0 = ref.fields[fi];
    const std::int64_t hx = static_cast<std::int64_t>(f0.halo[0]);
    const std::int64_t hy = static_cast<std::int64_t>(f0.halo[1]);
    const std::int64_t hz = static_cast<std::int64_t>(f0.halo[2]);
    const std::int64_t gnx = static_cast<std::int64_t>(f0.gn[0]);
    const std::int64_t gny = static_cast<std::int64_t>(f0.gn[1]);
    const std::int64_t gnz = static_cast<std::int64_t>(f0.gn[2]);
    const std::int64_t gex = gnx + 2 * hx, gey = gny + 2 * hy;
    std::vector<double> global(
        static_cast<std::size_t>(gex) * gey * (gnz + 2 * hz), 0.0);
    auto gat = [&](std::int64_t gi, std::int64_t gj,
                   std::int64_t gk) -> double& {
      return global[static_cast<std::size_t>(
          ((gk + hz) * gey + (gj + hy)) * gex + (gi + hx))];
    };

    for (int r = 0; r < old_count; ++r) {
      const CarryFieldGeom& fr = parsed[r].fields[fi];
      if (fr.is3d != f0.is3d || fr.gn != f0.gn || fr.halo != f0.halo)
        throw std::runtime_error(
            "reshard_checkpoints: inconsistent carry field " +
            std::to_string(fi) + " under " + prefix);
      const std::array<int, 3> coords{r % old_dims[0],
                                      (r / old_dims[0]) % old_dims[1],
                                      r / (old_dims[0] * old_dims[1])};
      const mesh::Range yb =
          mesh::block_range(static_cast<int>(gny), old_dims[1], coords[1]);
      const mesh::Range zb =
          f0.is3d ? mesh::block_range(static_cast<int>(gnz), old_dims[2],
                                      coords[2])
                  : mesh::Range{0, 1};
      if (fr.ln[0] != f0.gn[0] || fr.origin[0] != 0 ||
          fr.ln[1] != static_cast<std::uint64_t>(yb.count) ||
          fr.origin[1] != static_cast<std::uint64_t>(yb.begin) ||
          fr.ln[2] != static_cast<std::uint64_t>(zb.count) ||
          fr.origin[2] != static_cast<std::uint64_t>(zb.begin))
        throw std::runtime_error(
            "reshard_checkpoints: carry field " + std::to_string(fi) +
            " of rank " + std::to_string(r) +
            " does not match its checkpoint block under " + prefix);
      const std::int64_t lny = yb.count, lnz = zb.count;
      const std::int64_t y0 = yb.begin, z0 = zb.begin;
      const std::int64_t lex = gnx + 2 * hx, ley = lny + 2 * hy;
      const std::int64_t j_lo = y0 == 0 ? -hy : 0;
      const std::int64_t j_hi = y0 + lny == gny ? lny + hy : lny;
      const std::int64_t k_lo = z0 == 0 ? -hz : 0;
      const std::int64_t k_hi = z0 + lnz == gnz ? lnz + hz : lnz;
      for (std::int64_t k = k_lo; k < k_hi; ++k)
        for (std::int64_t j = j_lo; j < j_hi; ++j)
          for (std::int64_t i = -hx; i < gnx + hx; ++i)
            gat(i, y0 + j, z0 + k) = fr.data[static_cast<std::size_t>(
                ((k + hz) * ley + (j + hy)) * lex + (i + hx))];
    }

    for (int r = 0; r < new_count; ++r) {
      const std::array<int, 3> coords{r % new_dims[0],
                                      (r / new_dims[0]) % new_dims[1],
                                      r / (new_dims[0] * new_dims[1])};
      const mesh::Range yb =
          mesh::block_range(static_cast<int>(gny), new_dims[1], coords[1]);
      const mesh::Range zb =
          f0.is3d ? mesh::block_range(static_cast<int>(gnz), new_dims[2],
                                      coords[2])
                  : mesh::Range{0, 1};
      CarryFieldGeom nf;
      nf.is3d = f0.is3d;
      nf.gn = f0.gn;
      nf.halo = f0.halo;
      nf.ln = {f0.gn[0], static_cast<std::uint64_t>(yb.count),
               static_cast<std::uint64_t>(zb.count)};
      nf.origin = {0, static_cast<std::uint64_t>(yb.begin),
                   static_cast<std::uint64_t>(zb.begin)};
      const std::int64_t lny = yb.count, lnz = zb.count;
      const std::int64_t lex = gnx + 2 * hx, ley = lny + 2 * hy;
      nf.data.resize(static_cast<std::size_t>(lex) * ley * (lnz + 2 * hz));
      for (std::int64_t k = -hz; k < lnz + hz; ++k)
        for (std::int64_t j = -hy; j < lny + hy; ++j)
          for (std::int64_t i = -hx; i < gnx + hx; ++i)
            nf.data[static_cast<std::size_t>(((k + hz) * ley + (j + hy)) *
                                                 lex +
                                             (i + hx))] =
                gat(i, yb.begin + j, zb.begin + k);
      cut[static_cast<std::size_t>(r)].push_back(std::move(nf));
    }
  }

  std::vector<std::vector<std::byte>> out(
      static_cast<std::size_t>(new_count));
  for (int r = 0; r < new_count; ++r) {
    CarryWriter w;
    w.put_u64(kReshardableCarryMagic);
    w.put_u64(ref.min_lny);
    w.put_u64(ref.min_lnz);
    w.put_u64(ref.scalars.size());
    for (std::int64_t s : ref.scalars) w.put_i64(s);
    w.put_u64(ref.fields.size());
    for (const CarryFieldGeom& f : cut[static_cast<std::size_t>(r)]) {
      w.put_u64(f.is3d ? 1 : 0);
      for (const auto* trio : {&f.gn, &f.ln, &f.halo, &f.origin})
        for (std::uint64_t v : *trio) w.put_u64(v);
      w.put_doubles(f.data);
    }
    out[static_cast<std::size_t>(r)] = w.take();
  }
  return out;
}

/// Post-commit half of the reshard protocol, shared by the fresh path
/// and crash recovery: rename every still-staged file over its final
/// path (a rank already published keeps its final file), drop stale
/// old-rank files and every delta file, and retire the marker.
/// Idempotent — safe to re-run from any crash point after the marker.
void publish_reshard(const std::string& prefix, int old_count,
                     int new_count) {
  for (int r = 0; r < new_count; ++r) {
    fire_hook("published:" + std::to_string(r));
    const std::string final_path = checkpoint_path(prefix, r);
    const std::string staged = final_path + ".new";
    std::error_code ec;
    if (std::filesystem::exists(staged, ec)) {
      if (std::rename(staged.c_str(), final_path.c_str()) != 0)
        throw std::runtime_error("reshard publish rename failed: " +
                                 staged + " -> " + final_path + ": " +
                                 std::strerror(errno));
    } else if (!std::filesystem::exists(final_path, ec)) {
      throw std::runtime_error(
          "reshard recovery: rank " + std::to_string(r) +
          " has neither a staged nor a published file under " + prefix);
    }
  }
  const int max_count = std::max(old_count, new_count);
  for (int r = new_count; r < max_count; ++r)
    std::remove(checkpoint_path(prefix, r).c_str());
  // The old decomposition's delta chains are meaningless against the
  // resharded bases (their base_id no longer matches anyway).
  for (int r = 0; r < max_count; ++r)
    remove_stale_deltas(checkpoint_path(prefix, r));
  std::remove(reshard_marker_path(prefix).c_str());
  fsync_parent_dir(reshard_marker_path(prefix));
}

}  // namespace

bool recover_resharded_checkpoints(const std::string& prefix) {
  const std::string marker = reshard_marker_path(prefix);
  std::error_code ec;
  if (std::filesystem::exists(marker, ec)) {
    const std::vector<std::byte> bytes = slurp_file(marker);
    const std::string text(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size());
    int old_count = -1, new_count = -1;
    if (std::sscanf(text.c_str(), "old=%d new=%d", &old_count,
                    &new_count) != 2 ||
        old_count <= 0 || new_count <= 0)
      throw std::runtime_error("malformed reshard marker: " + marker);
    publish_reshard(prefix, old_count, new_count);
    return true;
  }
  // No marker: any staged files are from a reshard that died before its
  // commit point.  The old set is still the truth — sweep the stage.
  for (int r = 0;; ++r) {
    const std::string staged = checkpoint_path(prefix, r) + ".new";
    const bool a = std::remove(staged.c_str()) == 0;
    const bool b = std::remove((staged + ".tmp").c_str()) == 0;
    if (!a && !b) break;
  }
  return false;
}

void reshard_checkpoints(const std::string& prefix,
                         const mesh::LatLonMesh& mesh,
                         std::array<int, 3> old_dims,
                         std::array<int, 3> new_dims) {
  const int old_count = old_dims[0] * old_dims[1] * old_dims[2];
  const int new_count = new_dims[0] * new_dims[1] * new_dims[2];
  if (old_count <= 0 || new_count <= 0)
    throw std::runtime_error("reshard_checkpoints: empty process grid");

  // A previous invocation that crashed after its commit marker already
  // decided the reshard; roll it forward and the set IS the new shape.
  // (A pre-commit crash leaves no marker: the stage is swept and the
  // full reshard runs below against the intact old set.)
  if (recover_resharded_checkpoints(prefix)) return;

  // Copies the owned interior of `local` (block `d`) into/out of the
  // whole-mesh assembly state at the block's global origin.
  state::State global(mesh.nx(), mesh.ny(), mesh.nz(), state::StateHalo{});
  auto transfer = [&](const mesh::DomainDecomp& d, state::State& local,
                      bool to_global) {
    auto move3 = [&](util::Array3D<double>& gf, util::Array3D<double>& lf) {
      for (int k = 0; k < d.lnz(); ++k)
        for (int j = 0; j < d.lny(); ++j)
          for (int i = 0; i < d.lnx(); ++i) {
            double& g = gf(d.gi(i), d.gj(j), d.gk(k));
            double& l = lf(i, j, k);
            (to_global ? g : l) = (to_global ? l : g);
          }
    };
    move3(global.u(), local.u());
    move3(global.v(), local.v());
    move3(global.phi(), local.phi());
    for (int j = 0; j < d.lny(); ++j)
      for (int i = 0; i < d.lnx(); ++i) {
        double& g = global.psa()(d.gi(i), d.gj(j));
        double& l = local.psa()(i, j);
        (to_global ? g : l) = (to_global ? l : g);
      }
  };
  auto rank_decomp = [&](std::array<int, 3> dims, int r) {
    return reshard_rank_decomp(mesh, dims, r);
  };

  // Load every old rank's intact chain tip; a dead-rank set can have
  // ranks one cadence apart, so the common resumable step is the MINIMUM
  // tip and ahead ranks rewind their chains to it.  A rank that cannot
  // reconstruct the minimum (full-file sets have single-element chains)
  // makes the set genuinely inconsistent.
  std::vector<state::State> locals;
  std::vector<CheckpointHeader> headers;
  std::vector<std::vector<std::byte>> carries(
      static_cast<std::size_t>(old_count));
  locals.reserve(static_cast<std::size_t>(old_count));
  std::int64_t min_tip = 0;
  for (int r = 0; r < old_count; ++r) {
    const mesh::DomainDecomp d = rank_decomp(old_dims, r);
    locals.emplace_back(d.lnx(), d.lny(), d.lnz(), state::StateHalo{});
    const ChainReadResult cr =
        read_checkpoint_chain(checkpoint_path(prefix, r), mesh, d,
                              locals.back(), &carries[r]);
    headers.push_back(cr.header);
    min_tip = r == 0 ? cr.header.step : std::min(min_tip, cr.header.step);
  }
  for (int r = 0; r < old_count; ++r) {
    if (headers[r].step != min_tip) {
      const mesh::DomainDecomp d = rank_decomp(old_dims, r);
      try {
        headers[r] = read_checkpoint_chain(checkpoint_path(prefix, r),
                                           mesh, d, locals[r], &carries[r],
                                           {.max_step = min_tip})
                         .header;
      } catch (const std::exception& e) {
        throw std::runtime_error(
            "reshard_checkpoints: inconsistent checkpoint set under " +
            prefix + ": " + e.what());
      }
    }
    if (headers[r].time_seconds != headers[0].time_seconds)
      throw std::runtime_error(
          "reshard_checkpoints: inconsistent checkpoint set under " +
          prefix);
    transfer(rank_decomp(old_dims, r), locals[r], /*to_global=*/true);
  }
  const std::int64_t step = min_tip;
  const double time_seconds = headers[0].time_seconds;
  // The resharded set is healthy only if EVERY source rank's file was
  // verified healthy — a single unverified shard taints the merged state.
  std::uint32_t health = 1;
  for (const auto& h : headers) health = std::min(health, h.health);
  locals.clear();

  // A set whose ranks all carry cross-step core state gets the carries
  // redistributed alongside the prognostic fields; an all-empty set
  // stays carry-free.  A mix means the ranks checkpointed differently
  // configured cores — refuse rather than resume half a carry.
  int with_carry = 0;
  for (const auto& c : carries) with_carry += c.empty() ? 0 : 1;
  std::vector<std::vector<std::byte>> new_carries(
      static_cast<std::size_t>(new_count));
  if (with_carry == old_count) {
    new_carries = reshard_carries(prefix, mesh, old_dims, new_dims, carries);
  } else if (with_carry != 0) {
    throw std::runtime_error(
        "reshard_checkpoints: inconsistent checkpoint set under " + prefix +
        ": " + std::to_string(with_carry) + " of " +
        std::to_string(old_count) + " ranks carry core state");
  }

  // Stage the new set beside the old one; nothing the resume path reads
  // is touched until every staged file is durably on disk.
  for (int r = 0; r < new_count; ++r) {
    const mesh::DomainDecomp d = rank_decomp(new_dims, r);
    state::State local(d.lnx(), d.lny(), d.lnz(), state::StateHalo{});
    transfer(d, local, /*to_global=*/false);
    atomic_write_file(checkpoint_path(prefix, r) + ".new",
                      build_checkpoint_image(mesh, d, local, step,
                                             time_seconds, new_carries[r],
                                             health));
    fire_hook("staged:" + std::to_string(r));
  }
  // The commit point: one atomic rename publishes the marker.  Crash
  // before it -> the sweep discards the stage and the old set resumes;
  // crash after it -> recovery rolls the publish forward.
  const std::string marker_text = "old=" + std::to_string(old_count) +
                                  " new=" + std::to_string(new_count) +
                                  "\n";
  atomic_write_file(
      reshard_marker_path(prefix),
      std::as_bytes(std::span<const char>(marker_text.data(),
                                          marker_text.size())));
  fire_hook("committed");
  publish_reshard(prefix, old_count, new_count);
}

}  // namespace ca::util
