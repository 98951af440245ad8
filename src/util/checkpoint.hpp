// Binary checkpoint/restart of the model state: a versioned header with
// the mesh shape and this rank's block coordinates, followed by the four
// prognostic fields' owned interiors.  Each rank writes its own file
// (the standard file-per-rank pattern); restart validates every header
// field so a mismatched configuration fails loudly instead of silently
// reading garbage.
//
// The header carries a CRC-32 of the payload (comm messages carry
// checksums since the fault-injection work, and the checkpoint path gets
// the same defense against silent bit-rot on disk), and an optional,
// CRC-guarded *core-carry* extension block follows the payload: an opaque
// byte blob a core serializes through CarryWriter/CarryReader for
// whatever cross-step state lives outside the prognostic fields (the CA
// core's deferred smoothing and stale C products — see
// core/ca_core.hpp).  Cores without carry state write an empty block.
// This is format version 3; files stamped with any other version are
// rejected.
//
// Version 4 is a *delta* sidecar format, not a new base layout: the base
// file at `<path>` is still a plain v3 checkpoint (bitwise identical to
// what write_checkpoint emits), and each subsequent cadence may write
// only the dirty blocks of the full file image to `<path>.d<seq>`.  A
// delta file carries the base's identity hash, its position in the
// chain, a CRC over its own records AND a CRC over the reconstructed
// full image, so bit rot anywhere is detected and recovery falls back
// to the longest intact prefix of the chain.  CheckpointSession caps
// the chain length and rewrites a fresh full base when it is reached,
// which both bounds recovery cost and crash-atomically invalidates the
// old chain (stale deltas no longer match the new base's identity).
//
// Writes are crash-safe AND durable: the file is assembled at
// `<path>.tmp`, flushed, fsynced, closed with the close result checked,
// and renamed over `path` in one atomic step, after which the
// containing directory is fsynced — a writer killed mid-checkpoint
// leaves the previous checkpoint intact, and a power loss after
// write_checkpoint returns cannot surface an empty or torn "committed"
// file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mesh/decomp.hpp"
#include "state/state.hpp"

namespace ca::util {

/// Process-wide counters over every checkpoint file the process touched.
/// The service's RAM-first recovery asserts on these ("recovered without
/// reading a checkpoint from disk") and the benches report them.
struct CheckpointIoCounters {
  std::uint64_t files_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t files_read = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t fsyncs = 0;  ///< file fsyncs (directory fsyncs excluded)
};

/// Snapshot of the global counters (atomically maintained, so safe to
/// call while service worker threads checkpoint concurrently).
CheckpointIoCounters checkpoint_io();
void reset_checkpoint_io();

struct CheckpointHeader {
  std::uint64_t magic = 0x434141474D435031ull;  // "CAAGMCP1"
  std::uint32_t version = 3;
  std::int32_t nx = 0, ny = 0, nz = 0;        ///< global mesh
  std::int32_t lnx = 0, lny = 0, lnz = 0;     ///< this block
  std::int32_t x0 = 0, y0 = 0, z0 = 0;        ///< block origin
  std::int64_t step = 0;                       ///< model step count
  double time_seconds = 0.0;                   ///< model time
  std::uint32_t payload_crc = 0;  ///< CRC-32 of the payload bytes
  std::uint32_t reserved = 0;     ///< keeps the header 8-byte aligned
  std::uint64_t carry_bytes = 0;  ///< size of the core-carry block
  std::uint32_t carry_crc = 0;    ///< CRC-32 of the core-carry block
  /// Numerical-health verdict of the checkpointed state: 1 = verified
  /// healthy by the campaign's HealthSentinel immediately before the
  /// write, 0 = unverified (sentinel off, or a file from before the
  /// sentinel existed — this reuses the v3 header's spare field, so the
  /// on-disk layout is unchanged and old files read as "unverified").
  std::uint32_t health = 0;
};

// Pin the on-disk layout: any accidental reordering/padding change must
// fail the build instead of silently shifting the format.
static_assert(offsetof(CheckpointHeader, step) == 48);
static_assert(offsetof(CheckpointHeader, time_seconds) == 56);
static_assert(offsetof(CheckpointHeader, payload_crc) == 64);
static_assert(offsetof(CheckpointHeader, reserved) == 68);
static_assert(offsetof(CheckpointHeader, carry_bytes) == 72);
static_assert(offsetof(CheckpointHeader, carry_crc) == 80);
static_assert(offsetof(CheckpointHeader, health) == 84);
static_assert(sizeof(CheckpointHeader) == 88);

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`; the
/// checkpoint payload checksum.  Exposed for tests.
std::uint32_t crc32(std::span<const std::byte> data);

/// Serializer for the v3 core-carry block.  Fields are length-prefixed so
/// the reader can verify every span count against what the restoring core
/// expects — a carry written by a differently-configured core fails
/// loudly instead of shearing doubles across fields.
class CarryWriter {
 public:
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  /// Writes a u64 element count followed by the raw doubles.
  void put_doubles(std::span<const double> v);

  std::span<const std::byte> bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Magic prefix of a *reshardable* core-carry block ("CACARRY" + format
/// version 2).  A carry whose first 8 bytes are this value is fully
/// self-describing, so reshard_checkpoints can redistribute it across a
/// new Y-Z decomposition without knowing anything about the core that
/// wrote it:
///   u64 magic            = kReshardableCarryMagic
///   u64 min_lny, min_lnz minimum legal block extents when the y/z
///                        dimension is split (1 = unconstrained); a
///                        reshard to smaller blocks fails loudly
///   u64 n_scalars        then n_scalars i64 values, opaque to the
///                        resharder but required identical on every rank
///   u64 n_fields         then per field:
///     u64 is3d           1 = 3-D field, 0 = 2-D (z extents forced to 1)
///     u64 gnx, gny, gnz  global interior extents
///     u64 lnx, lny, lnz  this rank's interior block
///     u64 hx, hy, hz     halo depths (kept across a reshard)
///     u64 x0, y0, z0     block origin in the global interior
///     put_doubles(raw)   the full halo-inclusive x-fastest raw span,
///                        (lnx+2hx)*(lny+2hy)*(lnz+2hz) doubles
/// Resharding assembles each field on a halo-padded global grid from the
/// owned interiors plus the physical-boundary halo extensions (interior
/// rows win at internal block seams — exactly what a halo exchange would
/// deliver), then cuts the new blocks with unchanged halo depths.  Rows
/// that map 1:1 between the decompositions are preserved bitwise.  A
/// carry with any other magic is decomposition-opaque and makes the
/// whole set un-reshardable (loud failure).
inline constexpr std::uint64_t kReshardableCarryMagic = 0x4341434152525902ull;

/// Deserializer for the v3 core-carry block.  Every accessor throws
/// std::runtime_error on overrun or count mismatch.
class CarryReader {
 public:
  explicit CarryReader(std::span<const std::byte> data) : data_(data) {}

  std::uint64_t get_u64();
  std::int64_t get_i64();
  /// Reads a span written by put_doubles; the stored element count must
  /// equal out.size().
  void get_doubles(std::span<double> out);

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws unless the block was consumed exactly.
  void expect_end() const;

 private:
  void take(void* dst, std::size_t bytes);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Writes the owned interior of xi to `path` (always version 3, with the
/// payload CRC), atomically: the bytes land in `<path>.tmp` and are
/// renamed over `path` only after a checked flush+close, so a crash
/// mid-write cannot destroy the previous checkpoint.  `carry` is the
/// optional core-carry block (CRC-guarded; empty for cores without
/// cross-step state).  `health` is the header's numerical-health verdict
/// (see CheckpointHeader::health; 0 = unverified).  Throws
/// std::runtime_error on any I/O failure.
void write_checkpoint(const std::string& path,
                      const mesh::LatLonMesh& mesh,
                      const mesh::DomainDecomp& decomp,
                      const state::State& xi, std::int64_t step,
                      double time_seconds,
                      std::span<const std::byte> carry = {},
                      std::uint32_t health = 0);

/// Reads a checkpoint into xi (halos untouched; callers re-exchange or
/// restore them via the core's carry).  Returns the header.  When `carry`
/// is non-null it receives the core-carry block (empty for files written
/// without one), CRC-validated.  Throws std::runtime_error on I/O
/// failure, a version other than 3, any mesh/block mismatch, or a
/// payload/carry CRC mismatch.
CheckpointHeader read_checkpoint(const std::string& path,
                                 const mesh::LatLonMesh& mesh,
                                 const mesh::DomainDecomp& decomp,
                                 state::State& xi,
                                 std::vector<std::byte>* carry = nullptr);

/// Conventional per-rank file name: <prefix>.rank<r>.ckpt
std::string checkpoint_path(const std::string& prefix, int rank);

/// Removes ranks [0, ranks)'s base and delta files under `prefix`.
void remove_checkpoint_set(const std::string& prefix, int ranks);

/// Name of the seq-th delta file of the chain rooted at `path`
/// (1-based): `<path>.d<seq>`.
std::string delta_path(const std::string& path, int seq);

/// Serializes a full checkpoint (v3 header + payload + carry) into one
/// contiguous byte image — exactly the bytes write_checkpoint puts on
/// disk.  The delta codec diffs these images, and the service's buddy
/// replication streams them between ranks.
std::vector<std::byte> build_checkpoint_image(
    const mesh::LatLonMesh& mesh, const mesh::DomainDecomp& decomp,
    const state::State& xi, std::int64_t step, double time_seconds,
    std::span<const std::byte> carry = {}, std::uint32_t health = 0);

/// Parses a version-3 checkpoint image into xi — the in-memory twin of
/// read_checkpoint, with identical validation (magic, version, mesh/block
/// match, payload + carry CRC) and identical error messages.  `what` names the image in diagnostics (a path, or e.g.
/// "buddy replica of rank 3").
CheckpointHeader parse_checkpoint_image(std::span<const std::byte> image,
                                        const mesh::LatLonMesh& mesh,
                                        const mesh::DomainDecomp& decomp,
                                        state::State& xi,
                                        std::vector<std::byte>* carry,
                                        const std::string& what);

// --- v4 delta chain ------------------------------------------------------

/// On-disk header of a `<path>.d<seq>` delta file.  The payload after it
/// is `ndirty` u32 block indices followed by the blocks' raw bytes (each
/// block_bytes long except a short final block), together covered by
/// delta_crc.  base_id ties the delta to one specific base file (a hash
/// of the base's header bytes): a delta left over from an older chain
/// never matches a freshly rewritten base and is simply ignored, which
/// is what makes the chain-cap base rewrite crash-atomic without any
/// ordered deletes.
struct DeltaHeader {
  std::uint64_t magic = 0x434141474D435044ull;  // "CAAGMCPD"
  std::uint32_t version = 4;
  std::uint32_t block_bytes = 0;
  std::int32_t nx = 0, ny = 0, nz = 0;
  std::int32_t lnx = 0, lny = 0, lnz = 0;
  std::int32_t x0 = 0, y0 = 0, z0 = 0;
  std::uint32_t seq = 0;  ///< 1-based position in the chain
  std::int64_t step = 0;
  double time_seconds = 0.0;
  std::uint64_t base_id = 0;    ///< identity hash of the chain's base file
  std::uint64_t image_bytes = 0;  ///< size of the reconstructed image
  std::uint32_t ndirty = 0;     ///< dirty blocks in this delta
  std::uint32_t image_crc = 0;  ///< CRC-32 of the reconstructed image
  std::uint32_t delta_crc = 0;  ///< CRC-32 of the index+block payload
  std::uint32_t reserved = 0;
};
// Pin the on-disk layout like CheckpointHeader's: field order above is
// chosen so the struct has no padding.
static_assert(offsetof(DeltaHeader, seq) == 52);
static_assert(offsetof(DeltaHeader, step) == 56);
static_assert(offsetof(DeltaHeader, base_id) == 72);
static_assert(offsetof(DeltaHeader, delta_crc) == 96);
static_assert(sizeof(DeltaHeader) == 104);

struct ChainReadOptions {
  /// Reconstruct exactly this step (-1 = the furthest intact tip).  Used
  /// by the cross-rank min-tip agreement: a rank whose chain runs past
  /// the agreed step rewinds to it.  Throws when the chain has no
  /// element at this step.
  std::int64_t max_step = -1;
};

struct ChainReadResult {
  CheckpointHeader header;  ///< header of the reconstructed state
  int deltas_applied = 0;   ///< chain elements applied after the base
  /// True when the chain ended at a corrupt/torn delta instead of a
  /// missing one — the state is the last INTACT element (the documented
  /// fallback), but callers may want to surface the detection.
  bool truncated_by_corruption = false;
};

/// Reads the delta chain rooted at `path`: the full base file, then
/// `<path>.d1`, `<path>.d2`, ... applied in order while each delta is
/// present, intact (header + delta CRC + reconstructed-image CRC), tied
/// to this base (base_id), contiguous (seq), and within max_step.  The
/// first failing delta ends the chain and the state reconstructed so
/// far wins — a corrupt delta therefore falls back to the last intact
/// element, never garbage.  A plain full checkpoint (no `.d1`) behaves
/// exactly like read_checkpoint.  Throws on a missing/corrupt BASE or
/// when max_step >= 0 cannot be reconstructed exactly.
ChainReadResult read_checkpoint_chain(const std::string& path,
                                      const mesh::LatLonMesh& mesh,
                                      const mesh::DomainDecomp& decomp,
                                      state::State& xi,
                                      std::vector<std::byte>* carry = nullptr,
                                      const ChainReadOptions& opts = {});

struct DeltaOptions {
  /// Max delta files after a full base before the session rewrites a
  /// fresh base (bounds recovery cost).  0 disables deltas entirely:
  /// every cadence writes a full v3 file, bitwise identical to
  /// write_checkpoint.
  int chain_cap = 0;
  /// Dirty-diff granularity [bytes].
  std::size_t block_bytes = 4096;
};

struct CheckpointWriteStats {
  std::uint64_t cadences = 0;      ///< write() calls
  std::uint64_t full_writes = 0;   ///< cadences that wrote a full base
  std::uint64_t delta_writes = 0;  ///< cadences that wrote a delta
  std::uint64_t bytes_written = 0;  ///< actual file bytes
  /// What writing a full file every cadence would have cost.
  std::uint64_t full_equivalent_bytes = 0;
};

/// Per-rank checkpoint writer with optional delta chaining.  The first
/// write (and every write after chain_cap deltas) emits a full v3 base
/// at `path`; in between, only the blocks that changed since the
/// previous cadence go to `<path>.d<seq>`.  All writes are atomic and
/// fsynced.  The session keeps the current full image in memory, which
/// doubles as the buddy-replication payload.  A fresh session always
/// starts with a full base, so a resumed attempt re-anchors the chain
/// instead of extending one it never saw.
class CheckpointSession {
 public:
  explicit CheckpointSession(std::string path, DeltaOptions opts = {});

  /// Writes this cadence's checkpoint (full or delta per the chain
  /// policy).  `health` lands in the image's header (and so in the
  /// replication payload).  Throws std::runtime_error on any I/O failure.
  void write(const mesh::LatLonMesh& mesh, const mesh::DomainDecomp& decomp,
             const state::State& xi, std::int64_t step, double time_seconds,
             std::span<const std::byte> carry = {},
             std::uint32_t health = 0);

  /// The full v3 image of the last write() — what a buddy rank stores.
  const std::vector<std::byte>& image() const { return image_; }
  const CheckpointWriteStats& stats() const { return stats_; }

 private:
  std::string path_;
  DeltaOptions opts_;
  std::vector<std::byte> image_;
  std::uint64_t base_id_ = 0;
  int chain_len_ = 0;
  CheckpointWriteStats stats_;
};

/// Rewrites a per-rank checkpoint set from `old_dims` blocks to
/// `new_dims` blocks (rank layout x-fastest in both): every old rank's
/// delta chain is read into the global mesh at the set's common step
/// (the minimum intact tip when ranks' chains disagree, as a dead-rank
/// set can), and the set is rewritten for the new decomposition under
/// the same prefix.  The rewrite is crash-atomic: the new set is staged
/// at `<rank-path>.new`, a `<prefix>.reshard` commit marker is
/// published atomically, and only then are the staged files renamed
/// over the old set — a crash before the marker leaves the old set
/// resumable (stage files are swept), a crash after it is rolled
/// forward by recover_resharded_checkpoints (which this function also
/// runs first, so a pool retry self-heals).  Stale old-rank files
/// beyond the new rank count and all delta files are removed at
/// publish.  This is the degraded-pool recovery path: a job that lost
/// ranks to quarantine resumes from the resharded set on a smaller
/// process grid.  Core-carry blocks ARE preserved when every rank wrote
/// a reshardable carry (kReshardableCarryMagic): the carried fields are
/// redistributed geometrically across the new blocks, bitwise where
/// rows map 1:1.  A set whose carries are all empty reshards as before
/// (no carry in the new set); a set with opaque (non-reshardable) or
/// mixed carries, or a new shape below the carry's declared minimum
/// block extents, fails loudly.  Throws std::runtime_error on I/O
/// failure, an unrecoverable set, or any header mismatch.
void reshard_checkpoints(const std::string& prefix,
                         const mesh::LatLonMesh& mesh,
                         std::array<int, 3> old_dims,
                         std::array<int, 3> new_dims);

/// Completes a reshard interrupted after its commit marker: renames any
/// still-staged `<rank-path>.new` files over the final paths, removes
/// stale old-rank and delta files, and deletes the marker.  Without a
/// marker, sweeps pre-commit stage leftovers (the old set stays the
/// truth).  Idempotent.  Returns true when a committed reshard was
/// rolled forward.  The WorkerPool runs this over its checkpoint_dir at
/// startup (age-gated, like the `*.ckpt.tmp` sweep).
bool recover_resharded_checkpoints(const std::string& prefix);

/// Test-only crash injection for the reshard protocol: when set, the
/// hook is invoked at named protocol points ("staged:<r>", "committed",
/// "published:<r>") and may throw to simulate a crash there.  Null (the
/// default) costs nothing.
void set_checkpoint_test_hook(std::function<void(const std::string&)> hook);

}  // namespace ca::util
